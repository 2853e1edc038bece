#include "mac/fabric.h"

#include <optional>
#include <stdexcept>

#include "mac/csma_mac.h"
#include "mac/slotted.h"

namespace jtp::mac {

namespace {

// Slotted TDMA over one SlotSchedule. An empty margin is classic TDMA,
// the n-slot frame (paper §2); a margin is spatial reuse, the frame of
// interference colors, recolored lazily off the topology generation. Both
// derive the slot permutation's seed alike, and committed baselines are
// pinned to that derivation.
class SlottedFabric final : public MacFabric {
 public:
  SlottedFabric(const MacContext& ctx, std::optional<double> reuse_margin)
      : schedule_(ctx.topo, ctx.slot_duration_s, ctx.seed ^ 0x7d3aULL,
                  reuse_margin) {
    macs_.reserve(ctx.topo.size());
    for (core::NodeId id = 0; id < ctx.topo.size(); ++id)
      macs_.push_back(std::make_unique<SlottedMac>(ctx.sim, schedule_,
                                                   ctx.channel, ctx.energy,
                                                   id, ctx.config));
  }

  double node_capacity_pps() const override {
    return schedule_.node_capacity_pps();
  }
  double frame_duration_s() const override {
    return schedule_.frame_duration();
  }
  MacStats stats() const override { return schedule_.stats(); }

 private:
  SlotSchedule schedule_;
};

// CSMA/CA: contention over a shared carrier; the scenario's slot duration
// doubles as the backoff unit so TDMA and CSMA runs share a time base.
class CsmaFabric final : public MacFabric {
 public:
  explicit CsmaFabric(const MacContext& ctx)
      : medium_(ctx.topo, ctx.slot_duration_s),
        unit_(ctx.slot_duration_s),
        window_slots_(static_cast<double>(1ULL << ctx.config.csma.min_be)) {
    const sim::Rng master(ctx.seed);
    macs_.reserve(ctx.topo.size());
    for (core::NodeId id = 0; id < ctx.topo.size(); ++id)
      macs_.push_back(std::make_unique<CsmaMac>(
          ctx.sim, medium_, ctx.channel, ctx.energy, id, unit_, ctx.config,
          master.derive("csma", id)));
  }

  // Nominal: one packet per full minimum contention window.
  double node_capacity_pps() const override {
    return 1.0 / frame_duration_s();
  }
  double frame_duration_s() const override { return unit_ * window_slots_; }
  MacStats stats() const override { return MacStats{}; }  // no coloring

 private:
  CsmaMedium medium_;
  double unit_;
  double window_slots_;
};

}  // namespace

std::unique_ptr<MacFabric> make_fabric(Mac m, const MacContext& ctx) {
  switch (m) {
    case Mac::kTdma: return std::make_unique<SlottedFabric>(ctx, std::nullopt);
    case Mac::kTdmaReuse:
      return std::make_unique<SlottedFabric>(ctx,
                                             ctx.config.reuse_range_margin);
    case Mac::kCsma: return std::make_unique<CsmaFabric>(ctx);
  }
  throw std::invalid_argument("make_fabric: unknown MAC");
}

}  // namespace jtp::mac
