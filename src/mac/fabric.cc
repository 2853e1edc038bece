#include "mac/fabric.h"

#include <stdexcept>
#include <vector>

#include "mac/csma_mac.h"
#include "mac/reuse_tdma.h"
#include "mac/tdma_mac.h"
#include "mac/tdma_schedule.h"

namespace jtp::mac {

namespace {

// Classic TDMA: the n-slot frame (paper §2). Committed baselines are
// pinned to the schedule's seed derivation.
class TdmaFabric final : public MacFabric {
 public:
  explicit TdmaFabric(const MacContext& ctx)
      : schedule_(ctx.topo.size(), ctx.slot_duration_s,
                  ctx.seed ^ 0x7d3aULL) {
    macs_.reserve(ctx.topo.size());
    for (core::NodeId id = 0; id < ctx.topo.size(); ++id)
      macs_.push_back(std::make_unique<TdmaMac>(ctx.sim, schedule_,
                                                ctx.channel, ctx.energy, id,
                                                ctx.config));
  }

  MacIface& mac_of(core::NodeId id) override { return *macs_.at(id); }
  std::size_t size() const override { return macs_.size(); }
  double node_capacity_pps() const override {
    return schedule_.node_capacity_pps();
  }
  double frame_duration_s() const override {
    return schedule_.frame_duration();
  }
  MacStats stats() const override {
    // The degenerate coloring: every node its own color.
    MacStats st;
    st.colors_used = macs_.size();
    st.max_color = macs_.empty() ? 0 : macs_.size() - 1;
    return st;
  }

 private:
  TdmaSchedule schedule_;
  std::vector<std::unique_ptr<TdmaMac>> macs_;
};

// Spatial-reuse TDMA: frame length = interference colors, recolored
// lazily off the topology generation. Same seed derivation as classic so
// the color-slot permutation is comparable across disciplines.
class ReuseFabric final : public MacFabric {
 public:
  explicit ReuseFabric(const MacContext& ctx)
      : schedule_(ctx.topo, ctx.slot_duration_s, ctx.seed ^ 0x7d3aULL,
                  ctx.config.reuse_range_margin) {
    macs_.reserve(ctx.topo.size());
    for (core::NodeId id = 0; id < ctx.topo.size(); ++id)
      macs_.push_back(std::make_unique<ReuseTdmaMac>(ctx.sim, schedule_,
                                                     ctx.channel, ctx.energy,
                                                     id, ctx.config));
  }

  MacIface& mac_of(core::NodeId id) override { return *macs_.at(id); }
  std::size_t size() const override { return macs_.size(); }
  double node_capacity_pps() const override {
    return schedule_.node_capacity_pps();
  }
  double frame_duration_s() const override {
    return schedule_.frame_duration();
  }
  MacStats stats() const override { return schedule_.stats(); }

 private:
  ReuseSchedule schedule_;
  std::vector<std::unique_ptr<ReuseTdmaMac>> macs_;
};

// CSMA/CA: contention over a shared carrier; the scenario's slot duration
// doubles as the backoff unit so TDMA and CSMA runs share a time base.
class CsmaFabric final : public MacFabric {
 public:
  explicit CsmaFabric(const MacContext& ctx)
      : medium_(ctx.topo, ctx.slot_duration_s),
        unit_(ctx.slot_duration_s),
        window_slots_(static_cast<double>(1ULL << ctx.config.csma.min_be)) {
    macs_.reserve(ctx.topo.size());
    for (core::NodeId id = 0; id < ctx.topo.size(); ++id)
      macs_.push_back(std::make_unique<CsmaMac>(
          ctx.sim, medium_, ctx.channel, ctx.energy, id, unit_, ctx.config,
          sim::Rng(ctx.seed).derive("csma", id)));
  }

  MacIface& mac_of(core::NodeId id) override { return *macs_.at(id); }
  std::size_t size() const override { return macs_.size(); }
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
  std::vector<std::unique_ptr<CsmaMac>> macs_;
};

}  // namespace

std::unique_ptr<MacFabric> make_fabric(Mac m, const MacContext& ctx) {
  switch (m) {
    case Mac::kTdma: return std::make_unique<TdmaFabric>(ctx);
    case Mac::kTdmaReuse: return std::make_unique<ReuseFabric>(ctx);
    case Mac::kCsma: return std::make_unique<CsmaFabric>(ctx);
  }
  throw std::invalid_argument("make_fabric: unknown MAC");
}

}  // namespace jtp::mac
