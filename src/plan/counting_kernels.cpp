#include "plan/counting_kernels.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define PCS_REVSORT_AVX512 1
#include <immintrin.h>
#endif

namespace pcs::plan {

namespace {

/// The dense-prefix kernels' count pass: per-column valid counts (into
/// s.row_count), plus CSR offsets restricted to the ragged rows
/// [minc, maxc) — the dense prefix never touches the CSR at all.
void build_ragged_offsets(const std::vector<std::uint64_t>& words,
                          std::size_t v, std::size_t wpc, RevsortScratch& s,
                          std::uint32_t& minc, std::uint32_t& maxc) {
  std::uint32_t* histo = s.col_count.data();
  std::memset(histo, 0, (v + 1) * sizeof(std::uint32_t));
  minc = static_cast<std::uint32_t>(v);
  maxc = 0;
  for (std::size_t c = 0; c < v; ++c) {
    std::uint32_t cnt = 0;
    for (std::size_t j = 0; j < wpc; ++j) {
      cnt += static_cast<std::uint32_t>(std::popcount(words[c * wpc + j]));
    }
    s.row_count[c] = cnt;
    ++histo[cnt];
    minc = std::min(minc, cnt);
    maxc = std::max(maxc, cnt);
  }
  // Ragged row t in [minc, maxc) holds one slot per column with count > t:
  // suffix sums of the histogram give the lengths, a prefix scan the offsets.
  std::uint32_t acc = 0;
  for (std::uint32_t t = maxc; t-- > minc;) {
    acc += histo[t + 1];
    s.row_start[t] = acc;
  }
  std::uint32_t start = 0;
  for (std::uint32_t t = minc; t < maxc; ++t) {
    const std::uint32_t len = s.row_start[t];
    s.row_start[t] = start;
    s.cursor[t] = start;
    start += len;
  }
  s.row_start[maxc] = start;
}

}  // namespace

RoutingSink sink_for(sw::SwitchRouting& out, std::size_t n, std::size_t m) {
  out.output_of_input.resize(n);
  out.input_of_output.resize(m);
  return RoutingSink{out.output_of_input.data(), out.input_of_output.data(), n, m};
}

MaskSink sink_for(BitVec& routed, std::size_t n, std::size_t) {
  routed.reset(n);
  return MaskSink{routed.word_data()};
}

// ---------------------------------------------------------------------------
// Scalar kernel (any power-of-two side; the executor's choice for v < 64).
// ---------------------------------------------------------------------------

// Replays the staged route as pure rank arithmetic on the set bits.  Stage 1
// sends the t-th valid of column c to row t; the transpose hands row t its
// labels in ascending column order, so a stable counting sort by t reproduces
// the stage-2 pin order; the barrel shifter adds rev(t) to the stage-2 rank;
// and stage 3 ranks each destination column by ascending row, which is
// exactly the t-ascending CSR walk.  O(n/64 + k) per pattern.
template <class Sink>
void revsort_route_kernel(const BitVec& valid, std::size_t m, std::size_t v,
                          unsigned q, const std::vector<std::uint32_t>& rev,
                          RevsortScratch& s, const Sink& out) {
  const std::size_t n = valid.size();
  out.clear();
  s.reserve_staging(n);
  std::fill_n(s.col_count.begin(), v + 1, 0u);
  std::fill_n(s.row_count.begin(), v, 0u);
  std::fill_n(s.col3_count.begin(), v, 0u);

  // Stage 1: rank each set bit within its column (= its stage-1 output row).
  std::size_t k = 0;
  const auto& words = valid.words();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    std::uint64_t w = words[wi];
    while (w != 0) {
      const std::uint32_t x = static_cast<std::uint32_t>(
          wi * 64 + static_cast<std::size_t>(std::countr_zero(w)));
      w &= w - 1;
      const std::uint32_t t = s.col_count[x >> q]++;
      s.t_of[k] = t;
      s.x_of[k] = x;
      ++s.row_count[t];
      ++k;
    }
  }

  // Stable counting sort by row: within a row, labels keep ascending-column
  // order (ascending x), matching the stage-2 chip's pin order.
  s.row_start[0] = 0;
  for (std::size_t t = 0; t < v; ++t) {
    s.row_start[t + 1] = s.row_start[t] + s.row_count[t];
    s.cursor[t] = s.row_start[t];
  }
  for (std::size_t idx = 0; idx < k; ++idx) {
    s.row_x[s.cursor[s.t_of[idx]]++] = s.x_of[idx];
  }

  // Stages 2 + 3: stage-2 rank j2 is the bucket offset; the shifter moves it
  // to column (rev(t) + j2) mod v; stage 3 ranks that column by ascending t.
  for (std::size_t t = 0; t < v; ++t) {
    for (std::uint32_t idx = s.row_start[t]; idx < s.row_start[t + 1]; ++idx) {
      const std::uint32_t j2 = idx - s.row_start[t];
      const std::uint32_t j3 = (rev[t] + j2) & static_cast<std::uint32_t>(v - 1);
      const std::size_t pos = static_cast<std::size_t>(s.col3_count[j3]++) * v + j3;
      if (pos < m) out.hit(s.row_x[idx], pos);
    }
  }
}

// ---------------------------------------------------------------------------
// Dense-prefix scalar kernel (v >= 64).
// ---------------------------------------------------------------------------

namespace {

// The dense-prefix decomposition.  Row t of the stage-1 sorted matrix is
// *dense* when every column has more than t valids, i.e. for all t < minc.
// In a dense row the stage-2 rank of column c's item is just c (the stable
// sort adds nothing), so its final position is closed-form:
//
//   pos(t, c) = t * v + ((rev(t) + c) mod v)
//
// with no cross-column state at all.  The kernel exploits that three ways:
//  - output_of_input is produced in input order during the column scan
//    (phase A), one sequential write stream covering hits and -1s alike;
//  - dense items stage only their 16-bit intra-column bit offset (col_x16),
//    a quarter of the flat CSR traffic, and input_of_output's dense rows
//    are emitted as whole rotated rows (phase B), sequential again;
//  - only items at ranks >= minc are "ragged" and take the CSR + scatter
//    path (phase C), seeded with the dense prefix's per-column fill counts.
// At moderate densities the ragged tail is a few percent of the items, so
// nearly all traffic is sequential and the large-n cliff disappears.  The
// mask output keeps phases A and C and skips phase B, which only serves
// input_of_output.
template <class Sink>
void revsort_dense_scalar(const BitVec& valid, std::size_t m, std::size_t v,
                          unsigned q, const std::vector<std::uint32_t>& rev,
                          RevsortScratch& s, const Sink& out) {
  const auto& words = valid.words();
  const std::size_t wpc = v / 64;  // exact since v >= 64 and v is pow2
  std::uint32_t minc, maxc;
  build_ragged_offsets(words, v, wpc, s, minc, maxc);
  const std::uint32_t dense_rows = minc;
  const std::uint32_t vmask = static_cast<std::uint32_t>(v - 1);
  out.clear();
  std::uint16_t* cx16 = s.col_x16.data();
  std::uint32_t* cursor = s.cursor.data();
  std::uint32_t* row_x = s.row_x.data();
  // Phase A: one pass over the valid words.  Dense ranks get the closed-form
  // position written straight into output_of_input and stage their intra-
  // column offset; ragged ranks bucket their label into the CSR.
  for (std::size_t c = 0; c < v; ++c) {
    std::uint32_t t = 0;
    const std::uint32_t cbase = static_cast<std::uint32_t>(c * v);
    const std::uint32_t rc = static_cast<std::uint32_t>(c);
    std::uint16_t* cx = cx16 + c * dense_rows;
    for (std::size_t j = 0; j < wpc; ++j) {
      std::uint64_t w = words[c * wpc + j];
      const std::uint32_t wb = static_cast<std::uint32_t>(j * 64);
      while (w != 0) {
        const std::uint32_t xi =
            wb + static_cast<std::uint32_t>(std::countr_zero(w));
        w &= w - 1;
        if (t < dense_rows) {
          cx[t] = static_cast<std::uint16_t>(xi);
          const std::size_t pos = (static_cast<std::size_t>(t) << q) |
                                  ((rev[t] + rc) & vmask);
          if (pos < m) out.input(cbase + xi, pos);
        } else {
          row_x[cursor[t]++] = cbase + xi;
        }
        ++t;
      }
    }
  }
  // Phase B: dense rows of input_of_output, written as whole rotated rows.
  if constexpr (Sink::kFull) {
    std::int32_t* in_out = out.in_out;
    const std::uint32_t demit =
        std::min(dense_rows, static_cast<std::uint32_t>(m >> q));
    for (std::uint32_t t = 0; t < demit; ++t) {
      const std::uint32_t rt = rev[t];
      std::int32_t* base = in_out + (static_cast<std::size_t>(t) << q);
      const std::uint16_t* cxt = cx16 + t;
      for (std::uint32_t c = 0; c < v; ++c) {
        const std::uint32_t x =
            (c << q) + cxt[static_cast<std::size_t>(c) * dense_rows];
        base[(rt + c) & vmask] = static_cast<std::int32_t>(x);
      }
    }
    // A dense row straddling m (only when m < dense_rows * v) emits just its
    // below-m positions.
    if (demit < dense_rows && (static_cast<std::size_t>(demit) << q) < m) {
      const std::uint32_t t = demit;
      const std::uint32_t rt = rev[t];
      const std::size_t rowbase = static_cast<std::size_t>(t) << q;
      for (std::uint32_t c = 0; c < v; ++c) {
        const std::uint32_t j3 = (rt + c) & vmask;
        const std::size_t pos = rowbase + j3;
        if (pos < m) {
          const std::uint32_t x =
              (c << q) + cx16[static_cast<std::size_t>(c) * dense_rows + t];
          in_out[pos] = static_cast<std::int32_t>(x);
        }
      }
    }
  }
  // Phase C: the ragged rows take the CSR row walk, with every stage-3
  // column fill seeded by the one item per column each dense row emitted.
  std::uint32_t* col3 = s.col3_count.data();
  for (std::size_t j = 0; j < v; ++j) col3[j] = dense_rows;
  for (std::uint32_t t = dense_rows; t < maxc; ++t) {
    const std::uint32_t rt = rev[t];
    for (std::uint32_t idx = s.row_start[t]; idx < s.row_start[t + 1]; ++idx) {
      const std::uint32_t j2 = idx - s.row_start[t];
      const std::uint32_t j3 = (rt + j2) & vmask;
      const std::size_t pos =
          (static_cast<std::size_t>(col3[j3]++) << q) | j3;
      if (pos < m) out.hit(row_x[idx], pos);
    }
  }
}

}  // namespace

#ifdef PCS_REVSORT_AVX512

namespace {

bool cpu_has_avx512f_impl() {
  static const bool ok =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("bmi2");
  return ok;
}

// AVX-512 dense-prefix kernel.  Same decomposition as the scalar variant
// above (see its comment); the vector twists:
//  - phase A writes output_of_input with full 16-lane stores, -1s included:
//    the closed-form dense positions are compressed against the mask word
//    and expanded back onto the bit lanes, so the table needs no -1 prefill
//    and no scatter;
//  - the dense 16-bit staging store is _mm512_mask_cvtepi32_storeu_epi16,
//    which is plain AVX512F (the dispatch gate does not include AVX512BW);
//  - phase B re-reads the staged offsets with a scale-2 gather (stride
//    dense_rows across columns) and emits each dense row with one straight
//    store per 16 columns, falling back to a scatter only for the <= 1
//    vector that wraps the barrel rotation;
//  - masked loads/stores fault-suppress the dead lanes, so the only slack
//    the scratch needs is col_x16's +16 entries for the gather's 32-bit
//    reads at the tail.
//  - the mask output ORs each window's routed lanes (the expanded positions
//    that are not -1) into its word, skips phase B, and sets phase C's bits
//    from the in-range lanes.
template <class Sink>
__attribute__((target("avx512f")))
void revsort_dense_avx512(const BitVec& valid, std::size_t m, std::size_t v,
                          unsigned q, const std::vector<std::uint32_t>& rev,
                          RevsortScratch& s, const Sink& out) {
  const auto& words = valid.words();
  const std::size_t wpc = v / 64;
  std::uint32_t minc, maxc;
  build_ragged_offsets(words, v, wpc, s, minc, maxc);
  const std::uint32_t dense_rows = minc;
  // Ragged region of input_of_output (phase B covers everything below it).
  if constexpr (Sink::kFull) {
    const std::size_t lo =
        std::min<std::size_t>(static_cast<std::size_t>(dense_rows) << q, m);
    if (m > lo) {
      std::memset(out.in_out + lo, 0xFF, (m - lo) * sizeof(std::int32_t));
    }
  }

  const __m512i iota =
      _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i vneg1 = _mm512_set1_epi32(-1);
  const __m512i vm = _mm512_set1_epi32(static_cast<int>(m));
  const __m512i vmaskv = _mm512_set1_epi32(static_cast<int>(v - 1));
  std::uint16_t* cx16 = s.col_x16.data();
  std::uint32_t* cursor = s.cursor.data();
  std::uint32_t* row_x = s.row_x.data();
  const std::uint32_t* revp = rev.data();

  // Phase A: sequential bit read, sequential output_of_input write.
  for (std::size_t c = 0; c < v; ++c) {
    std::uint32_t t = 0;
    const std::uint32_t cbase = static_cast<std::uint32_t>(c * v);
    std::uint16_t* cx = cx16 + c * dense_rows;
    const __m512i vc = _mm512_set1_epi32(static_cast<int>(c));
    for (std::size_t j = 0; j < wpc; ++j) {
      const std::uint64_t w = words[c * wpc + j];
      const std::uint32_t wb = static_cast<std::uint32_t>(j * 64);
      for (unsigned h = 0; h < 4; ++h) {
        const std::uint32_t x0 = wb + 16 * h;  // intra-column window base
        const __mmask16 mk = static_cast<__mmask16>((w >> (16 * h)) & 0xFFFF);
        if (!mk) {
          if constexpr (Sink::kFull) {
            _mm512_storeu_si512(out.out_in + cbase + x0, vneg1);
          }
          continue;
        }
        const unsigned pc = static_cast<unsigned>(std::popcount(
            static_cast<std::uint32_t>(mk)));
        // Compressed intra-column bit offsets of this window's set bits.
        const __m512i bitposv = _mm512_maskz_compress_epi32(
            mk, _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(x0)),
                                 iota));
        const unsigned kd =
            t < dense_rows ? std::min(pc, dense_rows - t) : 0;
        __m512i posc = vneg1;
        if (kd) {
          const __mmask16 mkd = static_cast<__mmask16>((1u << kd) - 1);
          // Stage the dense ranks' 16-bit offsets, column-major.
          _mm512_mask_cvtepi32_storeu_epi16(cx + t, mkd, bitposv);
          // Closed-form positions ((t+k) << q) | ((rev(t+k)+c) mod v),
          // clipped against m to -1.
          const __m512i revv = _mm512_maskz_loadu_epi32(mkd, revp + t);
          const __m512i j3v =
              _mm512_and_si512(_mm512_add_epi32(revv, vc), vmaskv);
          const __m512i tv =
              _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(t)), iota);
          const __m512i p = _mm512_or_si512(
              _mm512_slli_epi32(tv, static_cast<int>(q)), j3v);
          const __mmask16 okm = _mm512_mask_cmplt_epu32_mask(mkd, p, vm);
          posc = _mm512_mask_mov_epi32(vneg1, okm, p);
        }
        // Ragged ranks bucket their global label into the CSR.
        if (pc > kd) {
          const __mmask16 mr = static_cast<__mmask16>(
              ((1u << pc) - 1) & ~((1u << kd) - 1));
          const __m512i idx = _mm512_maskz_loadu_epi32(mr, cursor + t);
          const __m512i xv = _mm512_add_epi32(
              _mm512_set1_epi32(static_cast<int>(cbase)), bitposv);
          _mm512_mask_i32scatter_epi32(row_x, mr, idx, xv, 4);
          _mm512_mask_storeu_epi32(cursor + t, mr, _mm512_add_epi32(idx, one));
        }
        // Expand the compressed dense positions back onto their bit lanes
        // (-1 everywhere else) and store the window in one go.
        const __m512i lanes = _mm512_mask_expand_epi32(vneg1, mk, posc);
        if constexpr (Sink::kFull) {
          _mm512_storeu_si512(out.out_in + cbase + x0, lanes);
        } else if (kd) {
          const std::uint64_t hit = _mm512_cmpge_epi32_mask(
              lanes, _mm512_setzero_si512());
          out.words[(cbase + x0) >> 6] |= hit << ((cbase + x0) & 63);
        }
        t += pc;
      }
    }
  }

  // Phase B: dense rows of input_of_output, whole rotated rows at a time.
  if constexpr (Sink::kFull) {
    std::int32_t* in_out = out.in_out;
    const std::uint32_t demit =
        std::min(dense_rows, static_cast<std::uint32_t>(m >> q));
    const __m512i strided = _mm512_set1_epi32(static_cast<int>(dense_rows));
    for (std::uint32_t t = 0; t < demit; ++t) {
      const std::uint32_t rt = revp[t];
      std::int32_t* base = in_out + (static_cast<std::size_t>(t) << q);
      const __m512i tv = _mm512_set1_epi32(static_cast<int>(t));
      for (std::uint32_t c = 0; c < v; c += 16) {
        const __m512i cv =
            _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(c)), iota);
        // Gather the staged offsets at col_x16[(c+k) * dense_rows + t].
        const __m512i idx =
            _mm512_add_epi32(_mm512_mullo_epi32(cv, strided), tv);
        __m512i g = _mm512_i32gather_epi32(
            idx, reinterpret_cast<const int*>(cx16), 2);
        g = _mm512_and_si512(g, _mm512_set1_epi32(0xFFFF));
        const __m512i xv = _mm512_add_epi32(
            _mm512_slli_epi32(cv, static_cast<int>(q)), g);
        const std::uint32_t j3c = (rt + c) & static_cast<std::uint32_t>(v - 1);
        if (j3c + 16 <= v) {
          _mm512_storeu_si512(base + j3c, xv);
        } else {
          const __m512i j3v = _mm512_and_si512(
              _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(rt + c)),
                               iota),
              vmaskv);
          _mm512_i32scatter_epi32(base, j3v, xv, 4);
        }
      }
    }
    // A dense row straddling m emits just its below-m positions.
    if (demit < dense_rows && (static_cast<std::size_t>(demit) << q) < m) {
      const std::uint32_t t = demit;
      const std::uint32_t rt = revp[t];
      std::int32_t* base = in_out + (static_cast<std::size_t>(t) << q);
      const __m512i lim = _mm512_set1_epi32(
          static_cast<int>(static_cast<std::uint32_t>(m) - (t << q)));
      const __m512i tv = _mm512_set1_epi32(static_cast<int>(t));
      for (std::uint32_t c = 0; c < v; c += 16) {
        const __m512i cv =
            _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(c)), iota);
        const __m512i idx =
            _mm512_add_epi32(_mm512_mullo_epi32(cv, strided), tv);
        __m512i g = _mm512_i32gather_epi32(
            idx, reinterpret_cast<const int*>(cx16), 2);
        g = _mm512_and_si512(g, _mm512_set1_epi32(0xFFFF));
        const __m512i xv = _mm512_add_epi32(
            _mm512_slli_epi32(cv, static_cast<int>(q)), g);
        const __m512i j3v = _mm512_and_si512(
            _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(rt + c)), iota),
            vmaskv);
        const __mmask16 ok = _mm512_cmplt_epu32_mask(j3v, lim);
        _mm512_mask_i32scatter_epi32(base, ok, j3v, xv, 4);
      }
    }
  }

  // Phase C: ragged rows via a two-segment row walk, stage-3 fills seeded
  // with the dense prefix's one-item-per-column contribution.  The shifter
  // maps stage-2 rank j2 to column (rev(t)+j2) mod v; splitting each row at
  // the wrap point keeps j3 consecutive, so the stage-3 fills are contiguous
  // loads/stores and only the routing tables scatter.  Each row runs as two
  // passes: first compute every position into pos_buf (scratch-only
  // traffic), then scatter from sequential reads.  Interleaving the col3
  // loads with the table scatters instead makes the kernel hostage to 4K
  // store-to-load aliasing against the caller-controlled output addresses.
  std::uint32_t* col3 = s.col3_count.data();
  for (std::size_t j = 0; j < v; ++j) col3[j] = dense_rows;
  std::uint32_t* pos_buf = s.pos_buf.data();
  for (std::uint32_t t = dense_rows; t < maxc; ++t) {
    const std::uint32_t rt = revp[t];
    const std::uint32_t len = s.row_start[t + 1] - s.row_start[t];
    const std::uint32_t* row = row_x + s.row_start[t];
    const std::uint32_t seg0 = std::min(len, static_cast<std::uint32_t>(v) - rt);
    for (unsigned seg = 0; seg < 2; ++seg) {
      const std::uint32_t j2lo = seg == 0 ? 0 : seg0;
      const std::uint32_t j2hi = seg == 0 ? seg0 : len;
      const std::uint32_t j3base = seg == 0 ? rt : 0;
      for (std::uint32_t j2 = j2lo; j2 < j2hi; j2 += 16) {
        const std::uint32_t live = std::min(16u, j2hi - j2);
        const __mmask16 mt = static_cast<__mmask16>((1u << live) - 1);
        const std::uint32_t j3c = j3base + (j2 - j2lo);
        const __m512i fillv = _mm512_maskz_loadu_epi32(mt, col3 + j3c);
        const __m512i j3v =
            _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(j3c)), iota);
        const __m512i posv = _mm512_add_epi32(
            _mm512_slli_epi32(fillv, static_cast<int>(q)), j3v);
        _mm512_mask_storeu_epi32(pos_buf + j2, mt, posv);
        _mm512_mask_storeu_epi32(col3 + j3c, mt, _mm512_add_epi32(fillv, one));
      }
    }
    for (std::uint32_t j2 = 0; j2 < len; j2 += 16) {
      const std::uint32_t live = std::min(16u, len - j2);
      const __mmask16 mt = static_cast<__mmask16>((1u << live) - 1);
      const __m512i xv = _mm512_maskz_loadu_epi32(mt, row + j2);
      const __m512i posv = _mm512_maskz_loadu_epi32(mt, pos_buf + j2);
      const __mmask16 ok = _mm512_mask_cmplt_epu32_mask(mt, posv, vm);
      if constexpr (Sink::kFull) {
        _mm512_mask_i32scatter_epi32(out.in_out, ok, posv, xv, 4);
        _mm512_mask_i32scatter_epi32(out.out_in, ok, xv, posv, 4);
      } else {
        for (unsigned lanes = ok; lanes != 0; lanes &= lanes - 1) {
          out.input(row[j2 + static_cast<unsigned>(std::countr_zero(lanes))], 0);
        }
      }
    }
  }
}

}  // namespace

#else

namespace {
bool cpu_has_avx512f_impl() { return false; }
}  // namespace

#endif  // PCS_REVSORT_AVX512

bool cpu_has_avx512f() { return cpu_has_avx512f_impl(); }

template <class Sink>
void revsort_route_kernel_fused(const BitVec& valid, std::size_t m,
                                std::size_t v, unsigned q,
                                const std::vector<std::uint32_t>& rev,
                                RevsortScratch& s, bool vectorize,
                                const Sink& out) {
#ifdef PCS_REVSORT_AVX512
  if (vectorize) return revsort_dense_avx512(valid, m, v, q, rev, s, out);
#else
  (void)vectorize;
#endif
  revsort_dense_scalar(valid, m, v, q, rev, s, out);
}

// ---------------------------------------------------------------------------
// Columnsort kernel.
// ---------------------------------------------------------------------------

// Single ascending pass over the set bits.  Stage 1 sends the t-th valid of
// column c to column-major position y = c*r + t; the CM -> RM wiring lands
// it on stage-2 chip y mod s = t mod s (s divides r), and because y ascends
// along the pass, so does the stage-2 pin y / s within each chip -- the
// stable stage-2 rank is just the chip's fill counter.  With read-out
// position rank*s + chip, the next position a chip emits is a running value
// bumped by s per message.
//
// The pass is column-major ascending, so the current column is a running
// boundary (x crosses multiples of r in order) and the per-column fill
// mod s is a wrap-around counter reset at each column entry: no division
// anywhere in the loop.
template <class Sink>
void columnsort_route_kernel(const BitVec& valid, std::size_t m, std::size_t r,
                             std::size_t s, ColumnsortScratch& sc,
                             const Sink& out) {
  out.clear();
  std::size_t* next_pos = sc.next_pos.data();
  for (std::size_t j = 0; j < s; ++j) next_pos[j] = j;
  const auto& words = valid.words();
  std::size_t col_end = r;  // exclusive end of the current column's bits
  std::size_t j2 = 0;       // current column's fill counter, mod s
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    std::uint64_t w = words[wi];
    const std::size_t wb = wi * 64;
    while (w != 0) {
      const std::size_t x = wb + static_cast<std::size_t>(std::countr_zero(w));
      w &= w - 1;
      while (x >= col_end) {
        col_end += r;
        j2 = 0;
      }
      const std::size_t pos = next_pos[j2];
      next_pos[j2] += s;
      if (++j2 == s) j2 = 0;
      if (pos < m) out.hit(static_cast<std::uint32_t>(x), pos);
    }
  }
}

// Each kernel body serves both outputs.
#define PCS_KERNEL_OUTPUTS(Sink)                                              \
  template void revsort_route_kernel(const BitVec&, std::size_t, std::size_t, \
                                     unsigned, const std::vector<std::uint32_t>&, \
                                     RevsortScratch&, const Sink&);           \
  template void revsort_route_kernel_fused(                                   \
      const BitVec&, std::size_t, std::size_t, unsigned,                      \
      const std::vector<std::uint32_t>&, RevsortScratch&, bool, const Sink&); \
  template void columnsort_route_kernel(const BitVec&, std::size_t,           \
                                        std::size_t, std::size_t,             \
                                        ColumnsortScratch&, const Sink&);
PCS_KERNEL_OUTPUTS(RoutingSink)
PCS_KERNEL_OUTPUTS(MaskSink)
#undef PCS_KERNEL_OUTPUTS

}  // namespace pcs::plan
