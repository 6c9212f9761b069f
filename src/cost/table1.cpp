#include "cost/table1.hpp"

#include <iomanip>
#include <sstream>

#include "switch/make_switch.hpp"
#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace pcs::cost {

std::vector<Table1Column> table1_columns(std::size_t n, std::size_t m,
                                         const DelayModel& dm) {
  PCS_REQUIRE(is_pow2(n), "table1_columns n must be a power of two");
  std::vector<Table1Column> cols;
  cols.push_back(Table1Column{"Revsort", revsort_report(n, m, dm)});
  for (double beta : kTable1Betas) {
    // Realize the same shape selection the switch factory uses so that the
    // table matches what would actually be built.
    const plan::SwitchPlan p = make_switch_plan({"columnsort", n, m, beta});
    std::ostringstream hdr;
    hdr << "Columnsort b=" << beta;
    cols.push_back(
        Table1Column{hdr.str(), columnsort_report(p.fp_r, p.fp_s, m, dm)});
  }
  return cols;
}

std::string render_table1(std::size_t n, std::size_t m, const DelayModel& dm) {
  auto cols = table1_columns(n, m, dm);
  std::ostringstream os;
  os << "Table 1 (concrete, n=" << n << ", m=" << m << ")\n";
  const int w = 18;
  os << std::left << std::setw(16) << "";
  for (const auto& c : cols) os << std::setw(w) << c.header;
  os << "\n";
  auto row = [&](const std::string& label, auto getter) {
    os << std::left << std::setw(16) << label;
    for (const auto& c : cols) {
      std::ostringstream cell;
      cell << getter(c.report);
      os << std::setw(w) << cell.str();
    }
    os << "\n";
  };
  row("pins per chip", [](const ResourceReport& r) { return r.pins_per_chip; });
  row("chip count", [](const ResourceReport& r) { return r.chip_count; });
  row("epsilon", [](const ResourceReport& r) { return r.epsilon; });
  os << std::left << std::setw(16) << "load ratio";
  for (const auto& c : cols) {
    std::ostringstream cell;
    cell << std::fixed << std::setprecision(4) << c.report.load_ratio;
    os << std::setw(w) << cell.str();
  }
  os << "\n";
  row("gate delays", [](const ResourceReport& r) { return r.gate_delays; });
  row("volume", [](const ResourceReport& r) { return r.volume_3d; });
  row("boards", [](const ResourceReport& r) { return r.board_count; });
  row("connectors", [](const ResourceReport& r) { return r.connector_count; });
  return os.str();
}

std::string render_table1_asymptotic() {
  std::ostringstream os;
  os << "Table 1 (paper, asymptotic)\n";
  const int w = 18;
  const char* headers[] = {"", "Revsort", "Columnsort b=1/2", "Columnsort b=5/8",
                           "Columnsort b=3/4"};
  const char* rows[][5] = {
      {"pins per chip", "Th(n^1/2)", "Th(n^1/2)", "Th(n^5/8)", "Th(n^3/4)"},
      {"chip count", "Th(n^1/2)", "Th(n^1/2)", "Th(n^3/8)", "Th(n^1/4)"},
      {"load ratio", "1-O(n^3/4 / m)", "1-O(n / m)", "1-O(n^3/4 / m)",
       "1-O(n^1/2 / m) *"},
      {"gate delays", "3 lg n + O(1)", "2 lg n + O(1)", "5/2 lg n + O(1)",
       "3 lg n + O(1)"},
      {"volume", "Th(n^3/2)", "Th(n^3/2)", "Th(n^13/8)", "Th(n^7/4)"},
  };
  for (const char* h : headers) os << std::left << std::setw(w) << h;
  os << "\n";
  for (const auto& r : rows) {
    for (const char* cell : r) os << std::left << std::setw(w) << cell;
    os << "\n";
  }
  os << "* the paper's table prints 1-O(n^1/4 / m) here, but its own formula\n"
        "  1-O(n^(2-2b)/m) with b=3/4 gives n^1/2; we show the formula value\n"
        "  (see EXPERIMENTS.md, discrepancy D-T1).\n";
  return os.str();
}

}  // namespace pcs::cost
