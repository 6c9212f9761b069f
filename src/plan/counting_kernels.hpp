// The batch counting kernels behind route_batch's fast paths.
//
// A fault-free Revsort or Columnsort plan routes a pattern without ever
// simulating its stages: the staged execution is replayed as pure rank
// arithmetic on the set bits (DESIGN.md §7).  This header owns every
// variant of those kernels; the executor picks one per plan and CPU:
//
//  * revsort_route_kernel -- the scalar kernel, one global counting-sort
//    pass then one full row walk.  Valid for any power-of-two matrix side
//    v, and the production kernel for sides below 64, where a matrix column
//    is less than one valid-word (this covers the n = 256 Revsort nodes the
//    serving and fabric campaigns route).
//  * revsort_route_kernel_fused -- the kernel for v >= 64, organized around
//    the *dense row prefix*.  Let minc be the smallest per-column valid
//    count: in every row t < minc all v columns are live, so the stage-2
//    rank of column c is just c and the final position is closed-form,
//    pos = t·v + ((rev(t) + c) mod v).  That turns almost all the work
//    into sequential memory traffic: output_of_input is written exactly
//    once, in input order, -1s included (no init memset, no scatter);
//    dense staging shrinks to 16-bit intra-column offsets; and
//    input_of_output's dense rows are written by whole rotated rows.
//    Only the ragged tail (rows >= minc, a few percent of items at
//    moderate densities) takes the CSR scatter path, seeded with the dense
//    prefix's per-column fill counts.  An AVX-512 variant runs when the
//    CPU has it.  A flat counting sort at large n (~3.5 MB of CSR staging
//    plus both routing tables per pattern at n = 2^18) falls out of L2 and
//    scatters to DRAM; this decomposition is what removes that cliff.
//  * columnsort_route_kernel -- one pass over the set bits; the pass is
//    column-major, so the column index and the per-column fill (mod s) are
//    running counters -- no division anywhere in the loop.
//
// Every kernel writes either of two outputs from one body: the full
// SwitchRouting (both maps), or only the routed-input mask -- bit x set
// exactly when the routing gives input x an output, which is all a campaign
// engine reads.  The mask skips both n + m int32 tables: the dense-prefix
// kernels drop their input_of_output row emission entirely.
//
// All kernels are valid only on fault-free plans (apply_chip_faults clears
// FastPathKind) and are bit-for-bit the staged walk (differential tests
// against legacy::run_plan in tests/legacy_reference.hpp, and the fuzzer).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "switch/concentrator.hpp"
#include "util/bitvec.hpp"

namespace pcs::plan {

/// True when this binary carries the AVX-512 kernel variants and the CPU
/// can run them.
bool cpu_has_avx512f();

/// Per-thread scratch for the Revsort kernels.  The executor keeps one per
/// thread across dispatches (fit() grows it to the largest side seen), so a
/// steady-state batch allocates nothing.
struct RevsortScratch {
  std::vector<std::uint32_t> col_count;   // stage-1 fill / count histogram
  std::vector<std::uint32_t> row_count;   // row sizes (scalar) or per-column
                                          // valid counts (dense prefix)
  std::vector<std::uint32_t> row_start;   // CSR offsets of the row buckets
  std::vector<std::uint32_t> cursor;      // CSR insertion cursors
  std::vector<std::uint32_t> col3_count;  // stage-3 fill per column
  std::vector<std::uint32_t> pos_buf;     // staged stage-3 positions of a row
  std::vector<std::uint32_t> t_of;        // stage-1 row of the idx-th set bit
  std::vector<std::uint32_t> x_of;        // input label of the idx-th set bit
  std::vector<std::uint32_t> row_x;       // labels bucketed by stage-2 row
  std::vector<std::uint16_t> col_x16;     // dense-prefix 16-bit staging
                                          // (intra-column bit offsets,
                                          // column-major; +16 slack for the
                                          // vector gather's 32-bit reads)

  // cursor and pos_buf keep 16 lanes of slack past v for the vector
  // kernel's 16-lane blocks (which are masked, so the slack is headroom).
  // The kernels index by v and n, never by the vectors' sizes, so a scratch
  // grown for a larger switch serves a smaller one as is.
  void fit(std::size_t v, std::size_t n) {
    grow(col_count, v + 1);
    grow(row_count, v);
    grow(row_start, v + 2);
    grow(cursor, v + 16);
    grow(col3_count, v);
    grow(pos_buf, v + 16);
    grow(row_x, n);
    grow(col_x16, n + 16);
  }

  // The label staging arrays are only used by the scalar kernel; keeping
  // them out of the dense-prefix paths trims their working set.
  void reserve_staging(std::size_t n) {
    grow(t_of, n);
    grow(x_of, n);
  }

 private:
  template <class T>
  static void grow(std::vector<T>& v, std::size_t size) {
    if (v.size() < size) v.resize(size);
  }
};

/// Per-thread scratch for the Columnsort kernel.
struct ColumnsortScratch {
  std::vector<std::size_t> next_pos;  // next readout position per chip

  void fit(std::size_t s) {
    if (next_pos.size() < s) next_pos.resize(s);
  }
};

/// Kernel output: the full routing.  input() records input x's output
/// position in output_of_input only; hit() records both directions.
struct RoutingSink {
  static constexpr bool kFull = true;
  std::int32_t* out_in;  // output_of_input, n entries
  std::int32_t* in_out;  // input_of_output, m entries
  std::size_t n, m;
  /// Both maps to -1, for kernels that write only the routed entries.
  void clear() const {
    std::fill_n(out_in, n, -1);
    std::fill_n(in_out, m, -1);
  }
  void input(std::uint32_t x, std::size_t pos) const {
    out_in[x] = static_cast<std::int32_t>(pos);
  }
  void hit(std::uint32_t x, std::size_t pos) const {
    in_out[pos] = static_cast<std::int32_t>(x);
    input(x, pos);
  }
};

/// Kernel output: the routed-input mask alone, bit x for every routed x.
struct MaskSink {
  static constexpr bool kFull = false;
  std::uint64_t* words;  // zeroed by sink_for
  void clear() const {}
  void input(std::uint32_t x, std::size_t) const {
    words[x >> 6] |= std::uint64_t{1} << (x & 63);
  }
  void hit(std::uint32_t x, std::size_t pos) const { input(x, pos); }
};

/// A sink writing one pattern of an n-input, m-output switch into `out`:
/// the routing's maps sized (the kernel initializes what it needs), or the
/// mask reset to n zero bits.  Storage `out` already holds is reused.
RoutingSink sink_for(sw::SwitchRouting& out, std::size_t n, std::size_t m);
MaskSink sink_for(BitVec& routed, std::size_t n, std::size_t m);

// Every kernel is one body templated on its sink, instantiated for
// RoutingSink and MaskSink.

/// Scalar Revsort kernel: valid for any power-of-two side v; the executor
/// runs it for v < 64.
template <class Sink>
void revsort_route_kernel(const BitVec& valid, std::size_t m, std::size_t v,
                          unsigned q, const std::vector<std::uint32_t>& rev,
                          RevsortScratch& s, const Sink& out);

/// Dense-prefix Revsort kernel: requires v >= 64.  `vectorize`
/// selects the AVX-512 inner loops (caller must have checked
/// cpu_has_avx512f()); otherwise the scalar dense-prefix loops run.
template <class Sink>
void revsort_route_kernel_fused(const BitVec& valid, std::size_t m,
                                std::size_t v, unsigned q,
                                const std::vector<std::uint32_t>& rev,
                                RevsortScratch& s, bool vectorize,
                                const Sink& out);

/// Division-free Columnsort kernel: running column boundary and
/// wrap-around fill counter instead of x/r and %s.
template <class Sink>
void columnsort_route_kernel(const BitVec& valid, std::size_t m, std::size_t r,
                             std::size_t s, ColumnsortScratch& sc,
                             const Sink& out);

}  // namespace pcs::plan
