#include "plan/plan_analysis.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace pcs::plan {

const char* gather_kind_name(GatherKind kind) noexcept {
  switch (kind) {
    case GatherKind::kIdentity: return "identity";
    case GatherKind::kStride: return "stride";
    case GatherKind::kGeneral: return "general";
  }
  return "?";
}

GatherKind classify_gather(const std::vector<std::int32_t>& in_src,
                           std::size_t* rows_out, std::size_t* cols_out) {
  const std::size_t n = in_src.size();
  bool identity = true;
  for (std::size_t w = 0; w < n; ++w) {
    if (in_src[w] < 0) return GatherKind::kGeneral;  // constant feeds
    if (static_cast<std::size_t>(in_src[w]) != w) identity = false;
  }
  if (identity) return GatherKind::kIdentity;
  // Fixed-stride shuffle (CM <-> RM / transpose wirings): for some factoring
  // n = a*b, in_src[i*a + j] == j*b + i — the gather reads its source with a
  // constant stride of b.  Wire 1 pins b (i=0, j=1 -> src = b); the mesh
  // being read is b rows of a columns.
  if (n >= 2 && in_src[0] == 0 && in_src[1] > 0) {
    const std::size_t b = static_cast<std::size_t>(in_src[1]);
    if (b > 1 && b < n && n % b == 0) {
      const std::size_t a = n / b;
      bool stride = true;
      for (std::size_t i = 0; i < b && stride; ++i) {
        for (std::size_t j = 0; j < a; ++j) {
          if (in_src[i * a + j] != static_cast<std::int32_t>(j * b + i)) {
            stride = false;
            break;
          }
        }
      }
      if (stride) {
        if (rows_out != nullptr) *rows_out = b;
        if (cols_out != nullptr) *cols_out = a;
        return GatherKind::kStride;
      }
    }
  }
  return GatherKind::kGeneral;
}

namespace {

LinkInfo analyze_link(const std::vector<std::int32_t>& in_src,
                      std::size_t upstream_wires, std::size_t idle_slot,
                      std::size_t pad_slot) {
  LinkInfo info;
  info.kind = classify_gather(in_src, &info.stride_rows, &info.stride_cols);
  // A truncating identity (reading a prefix of a wider upstream stage) must
  // keep its gather table: the fused kernels treat kIdentity as "the whole
  // upstream arrangement is already in place".
  if (info.kind == GatherKind::kIdentity && in_src.size() != upstream_wires) {
    info.kind = GatherKind::kGeneral;
  }
  for (const std::int32_t src : in_src) {
    if (src == kFeedIdle) info.has_idle_feeds = true;
    if (src == kFeedPad) info.has_pad_feeds = true;
    PCS_REQUIRE(src >= kFeedPad &&
                    (src < 0 || static_cast<std::size_t>(src) < upstream_wires),
                "analyze_plan link source out of range: src="
                    << src << " upstream=" << upstream_wires);
  }
  if (info.kind != GatherKind::kIdentity) {
    info.src.resize(in_src.size());
    for (std::size_t w = 0; w < in_src.size(); ++w) {
      const std::int32_t src = in_src[w];
      info.src[w] = src >= 0 ? static_cast<std::uint32_t>(src)
                             : static_cast<std::uint32_t>(
                                   src == kFeedPad ? pad_slot : idle_slot);
    }
  }
  return info;
}

std::vector<std::int32_t> readout_as_link(const SwitchPlan& plan) {
  std::vector<std::int32_t> src(plan.readout.size());
  for (std::size_t pos = 0; pos < plan.readout.size(); ++pos) {
    src[pos] = static_cast<std::int32_t>(plan.readout[pos]);
  }
  return src;
}

}  // namespace

PlanAnalysis analyze_plan(const SwitchPlan& plan) {
  PlanAnalysis a;
  a.max_wires = plan.n;
  for (const PlanStage& st : plan.stages) {
    if (st.wires() > a.max_wires) a.max_wires = st.wires();
  }
  for (const PlanStage& st : plan.safety_stages) {
    if (st.wires() > a.max_wires) a.max_wires = st.wires();
  }
  a.idle_slot = a.max_wires;
  a.pad_slot = a.max_wires + 1;
  a.buf_slots = a.max_wires + 2;

  std::size_t upstream = plan.n;  // stage 0 reads the switch inputs
  a.links.reserve(plan.stages.size());
  for (const PlanStage& st : plan.stages) {
    a.links.push_back(analyze_link(st.in_src, upstream, a.idle_slot, a.pad_slot));
    upstream = st.wires();
  }
  // Safety stages loop on the main pipeline's final width.
  for (const PlanStage& st : plan.safety_stages) {
    a.safety_links.push_back(
        analyze_link(st.in_src, upstream, a.idle_slot, a.pad_slot));
    upstream = st.wires();
  }
  const std::size_t last_wires =
      plan.stages.empty() ? plan.n : plan.stages.back().wires();
  a.readout = analyze_link(readout_as_link(plan), last_wires, a.idle_slot,
                           a.pad_slot);
  return a;
}

std::string PlanAnalysis::summary() const {
  std::ostringstream os;
  const auto describe = [&os](const LinkInfo& info) {
    os << gather_kind_name(info.kind);
    if (info.kind == GatherKind::kStride) {
      os << "(" << info.stride_rows << "x" << info.stride_cols << ")";
    }
    if (info.has_pad_feeds) os << ", pads";
    if (info.has_idle_feeds) os << ", idles";
  };
  for (std::size_t k = 0; k < links.size(); ++k) {
    os << "link " << k << ": ";
    describe(links[k]);
    os << "\n";
  }
  for (std::size_t k = 0; k < safety_links.size(); ++k) {
    os << "safety link " << k << ": ";
    describe(safety_links[k]);
    os << "\n";
  }
  os << "readout: ";
  describe(readout);
  os << "\n";
  return os.str();
}

}  // namespace pcs::plan
