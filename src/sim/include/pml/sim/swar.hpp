#pragma once
// Width-generic SWAR evaluation of one combinational cell: bit L of every
// lane word is lane L's logic value, so a gate evaluates for kWidth
// independent samples in a handful of machine ops.  The eval is templated
// on a LaneWord trait (sim/lanes.hpp): LaneU64 is the 64-lane scalar
// reference, LaneAvx2/LaneAvx512 widen the same code to 256/512 lanes in
// per-flag TUs.  Shared by the zero-delay BatchSimulator (samples or
// stuck-at variants) and the delay-accurate BatchEventSimulator so both
// engines agree with netlist::eval_cell lane for lane by construction —
// along with the flattened Op-list layout and port read helpers they have
// in common.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "pml/netlist/module.hpp"
#include "pml/sim/lanes.hpp"
#include "pml/sim/levelize.hpp"

namespace pml::sim {

// Exhaustiveness check for the eval switches below: the cases enumerate
// every CellType (no default, so -Wswitch flags a forgotten case), and
// this assert turns a new cell type into a hard compile error here rather
// than a runtime throw in whichever backend first meets it.
static_assert(netlist::kNumCellTypes == 10,
              "new CellType: teach sim::eval_cell_lanes about it (every "
              "LaneWord backend inherits the fix at once)");

/// Evaluate `type` across all L::kWidth lanes.  `b`/`s` are ignored by
/// cells that do not read those pins (callers remap unused pins to the
/// constant-0 net, so the loads are always in bounds).  Throws
/// std::logic_error on sequential cells (kDff has no combinational
/// function; DFFs are clocked by the simulators themselves).
template <LaneWord L>
[[nodiscard]] inline typename L::Word eval_cell_lanes_w(netlist::CellType type,
                                                        typename L::Word a,
                                                        typename L::Word b,
                                                        typename L::Word s) {
  using netlist::CellType;
  switch (type) {
    case CellType::kInv:
      return L::bnot(a);
    case CellType::kBuf:
      return a;
    case CellType::kNand2:
      return L::bnot(L::band(a, b));
    case CellType::kNor2:
      return L::bnot(L::bor(a, b));
    case CellType::kAnd2:
      return L::band(a, b);
    case CellType::kOr2:
      return L::bor(a, b);
    case CellType::kXor2:
      return L::bxor(a, b);
    case CellType::kXnor2:
      return L::bnot(L::bxor(a, b));
    case CellType::kMux2:
      return L::bor(L::andnot(a, s), L::band(b, s));
    case CellType::kDff:
      break;
  }
  throw std::logic_error("eval_cell_lanes: not a combinational cell");
}

/// 64-lane scalar form (the historical entry point; identical to
/// eval_cell_lanes_w<LaneU64>).
[[nodiscard]] inline std::uint64_t eval_cell_lanes(netlist::CellType type,
                                                   std::uint64_t a,
                                                   std::uint64_t b,
                                                   std::uint64_t s) {
  return eval_cell_lanes_w<LaneU64>(type, a, b, s);
}

/// Compact per-cell evaluation record with the pin indirection flattened
/// out of netlist::Cell (better cache behaviour in the loops that
/// dominate batch-simulation time).  Unused pins are remapped to the
/// constant-0 net so every load in a hot loop is in bounds without
/// per-op pin-count branching.
struct SwarOp {
  netlist::CellType type;
  netlist::NetId a, b, s, out;
};
struct SwarDffOp {
  netlist::NetId d, q;
  std::uint64_t init;  ///< power-on value broadcast to all lanes
};

[[nodiscard]] inline SwarOp flatten_cell(const netlist::Cell& c) {
  return SwarOp{c.type,
                c.in[0] == netlist::kInvalidNet ? netlist::kConst0 : c.in[0],
                c.in[1] == netlist::kInvalidNet ? netlist::kConst0 : c.in[1],
                c.in[2] == netlist::kInvalidNet ? netlist::kConst0 : c.in[2],
                c.out};
}

/// Combinational cells in levelized evaluation order (BatchSimulator).
/// Overwrites a reused vector so pooled simulators (rebind()) flatten
/// without allocating once warm.
inline void swar_comb_ops_into(std::vector<SwarOp>& ops,
                               const netlist::Module& module,
                               const Levelization& lv) {
  ops.clear();
  ops.reserve(lv.comb_order.size());
  for (const std::uint32_t idx : lv.comb_order) {
    ops.push_back(flatten_cell(module.cells()[idx]));
  }
}

[[nodiscard]] inline SwarDffOp flatten_dff(const netlist::Cell& c) {
  return SwarDffOp{c.in[0], c.out, c.dff_init ? ~std::uint64_t{0} : 0};
}

inline void swar_dff_ops_into(std::vector<SwarDffOp>& dffs,
                              const netlist::Module& module,
                              const Levelization& lv) {
  dffs.clear();
  dffs.reserve(lv.dffs.size());
  for (const std::uint32_t idx : lv.dffs) {
    dffs.push_back(flatten_dff(module.cells()[idx]));
  }
}

/// Two's complement reading of a `bits`-wide raw port value.
[[nodiscard]] inline std::int64_t sign_extend_port(std::uint64_t raw,
                                                   std::size_t bits) {
  const std::uint64_t sign = std::uint64_t{1} << (bits - 1);
  if (bits < 64 && (raw & sign)) {
    return static_cast<std::int64_t>(raw | ~((std::uint64_t{1} << bits) - 1));
  }
  return static_cast<std::int64_t>(raw);
}

}  // namespace pml::sim
