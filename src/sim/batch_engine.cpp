#include "sim/batch_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"
#include "util/math.h"

namespace raidrel::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

BatchGroupSimulator::BatchGroupSimulator(const raid::GroupConfig& config,
                                         std::size_t width,
                                         KernelPolicy policy,
                                         std::optional<TiltSpec> tilt,
                                         MathTier tier,
                                         std::shared_ptr<const LatentCurves>
                                             curves,
                                         bool double_op_probe)
    : cfg_(config),
      ops_(&lane_ops()),
      tier_(tier),
      width_(width),
      nslots_(config.slots.size()) {
  RAIDREL_REQUIRE(width >= 1, "batch width must be at least 1");
  cfg_.validate();
  if (latent_credit_exclusion(cfg_, tilt) == nullptr) {
    forward_.emplace(cfg_, policy, tilt, std::move(curves), double_op_probe);
    results_.resize(width_);
    return;
  }
  kernels_.reserve(nslots_);
  for (const auto& slot : cfg_.slots) {
    kernels_.push_back(SlotKernel::compile(slot, policy));
  }
  if (tilt) {
    for (const SlotKernel& k : kernels_) validate_tilt(*tilt, k);
    op_tilt_ = HazardTilt(tilt->op_theta);
    ld_tilt_ = HazardTilt(tilt->ld_theta);
    tilted_ = true;
  }
  for (const Law which : {Law::kOp, Law::kRestore, Law::kLatent, Law::kScrub}) {
    bool uniform = true;
    for (std::uint32_t s = 1; s < nslots_; ++s) {
      if (!(law_of(which, s) == law_of(which, 0))) {
        uniform = false;
        break;
      }
    }
    uniform_law_[static_cast<std::size_t>(which)] = uniform;
  }
  has_zones_ = cfg_.stripe_zones != 0;
  age_clock_ = cfg_.latent_clock == raid::LatentClock::kDriveAge;
  declustered_ = cfg_.rebuild == raid::RebuildModel::kDeclustered;
  probe_ = double_op_probe;
  uniform_latent_present_ =
      uniform_law_[static_cast<std::size_t>(Law::kLatent)] &&
      kernels_[0].latent.present();

  const std::size_t cells = width_ * nslots_;
  cells_.resize(cells);
  next_event_.resize(cells);
  next_kind_.resize(cells);
  awaiting_spare_.resize(cells);

  streams_.reserve(width_);
  results_.resize(width_);
  c_op_.resize(width_);
  c_latent_.resize(width_);
  c_scrub_.resize(width_);
  c_restore_.resize(width_);
  c_spare_.resize(width_);
  lw_.resize(width_);
  traces_.resize(width_);
  group_failed_until_.resize(width_);
  ddf_slot_.resize(width_);
  spares_available_.resize(width_);
  pending_orders_.resize(width_);
  spare_queue_.resize(width_);
  spare_queue_head_.resize(width_);

  active_.reserve(width_);
  bkt_spare_.resize(width_);
  bkt_clear_.resize(width_);
  bkt_restore_.resize(width_);
  bkt_op_.resize(width_);
  bkt_ld_.resize(width_);
  spare_next_.resize(width_);
  gather_.resize(width_);
  countdown_gather_.resize(width_);
  rs_scratch_.resize(width_);
  out_scratch_.resize(width_);
  age_scratch_.resize(width_);
  cell_scratch_.resize(width_);
  lw_scratch_.resize(width_);
  horizon_scratch_.resize(width_);

  if (probe_) {
    probe_p_.resize(nslots_);
    probe_dist_.resize(nslots_ + 1);
    probe_age_.resize(nslots_);
    probe_h0_.resize(nslots_);
    probe_h1_.resize(nslots_);
    probe_slot_.resize(nslots_);
  }
}

bool BatchGroupSimulator::restoring(std::size_t i) const noexcept {
  return cells_[i].restore_done < kInf || awaiting_spare_[i] != 0;
}

bool BatchGroupSimulator::defective(std::size_t i) const noexcept {
  return cells_[i].defect_occurred < kInf;
}

const CompiledLaw& BatchGroupSimulator::law_of(
    Law which, std::uint32_t slot) const noexcept {
  const SlotKernel& k = kernels_[slot];
  switch (which) {
    case Law::kOp:
      return k.op;
    case Law::kRestore:
      return k.restore;
    case Law::kLatent:
      return k.latent;
    case Law::kScrub:
      return k.scrub;
  }
  return k.op;  // unreachable
}

void BatchGroupSimulator::bulk_sample(Law which, const Ev* elems,
                                      std::size_t n, bool residual) {
  if (n == 0) return;
  // Only op and latent laws tilt; restore/scrub refills stay nominal.
  const HazardTilt* tilt = nullptr;
  if (tilted_) {
    if (which == Law::kOp) {
      tilt = &op_tilt_;
    } else if (which == Law::kLatent) {
      tilt = &ld_tilt_;
    }
  }
  if (uniform_law_[static_cast<std::size_t>(which)]) {
    const CompiledLaw& law = law_of(which, 0);
    if (tilt != nullptr) {
      // Stage each element's tilt horizon with the same arithmetic the
      // scalar engine uses at its draw site (mission remaining at the
      // element's own event time).
      const double mission = cfg_.mission_hours;
      if (residual) {
        for (std::size_t k = 0; k < n; ++k) {
          horizon_scratch_[k] = age_scratch_[k] + (mission - elems[k].t);
        }
        law.sample_residual_n_tilted(*tilt, age_scratch_.data(),
                                     horizon_scratch_.data(),
                                     rs_scratch_.data(), out_scratch_.data(),
                                     lw_scratch_.data(), n, *ops_, tier_);
      } else {
        for (std::size_t k = 0; k < n; ++k) {
          horizon_scratch_[k] = mission - elems[k].t;
        }
        law.sample_n_tilted(*tilt, horizon_scratch_.data(),
                            rs_scratch_.data(), out_scratch_.data(),
                            lw_scratch_.data(), n, *ops_, tier_);
      }
      // Scatter the weight terms in bucket (= lane) order: one add per
      // draw, the same rounding sequence as the scalar engine's
      // `log_w += term`.
      for (std::size_t k = 0; k < n; ++k) {
        lw_[elems[k].lane] += lw_scratch_[k];
      }
      return;
    }
    if (residual) {
      law.sample_residual_n(age_scratch_.data(), rs_scratch_.data(),
                            out_scratch_.data(), n, *ops_, tier_);
    } else {
      law.sample_n(rs_scratch_.data(), out_scratch_.data(), n, *ops_, tier_);
    }
    return;
  }
  // Mixed laws across slots (mixed-vintage groups): draw element-wise
  // through each element's own slot law — same values, smaller batching
  // win.
  if (tilt != nullptr) {
    const double mission = cfg_.mission_hours;
    for (std::size_t k = 0; k < n; ++k) {
      const CompiledLaw& law = law_of(which, elems[k].slot);
      lw_scratch_[k] = 0.0;  // 0.0 + term == term, so += stores it exactly
      out_scratch_[k] =
          residual ? law.sample_residual_tilted(
                         *tilt, age_scratch_[k],
                         age_scratch_[k] + (mission - elems[k].t),
                         *rs_scratch_[k], lw_scratch_[k])
                   : law.sample_tilted(*tilt, mission - elems[k].t,
                                       *rs_scratch_[k], lw_scratch_[k]);
    }
    for (std::size_t k = 0; k < n; ++k) {
      lw_[elems[k].lane] += lw_scratch_[k];
    }
    return;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const CompiledLaw& law = law_of(which, elems[k].slot);
    out_scratch_[k] = residual
                          ? law.sample_residual(age_scratch_[k], *rs_scratch_[k])
                          : law.sample(*rs_scratch_[k]);
  }
}

void BatchGroupSimulator::bulk_defect_countdown(const Ev* elems,
                                                std::size_t n) {
  if (n == 0) return;
  std::size_t* const cell = cell_scratch_.data();
  if (uniform_latent_present_) {
    // Every element draws through the same present latent law, so the
    // gather copy is unnecessary: one pass stages the draw inputs (and
    // caches each element's cell index), one pass scatters the
    // countdowns back through the cache.
    for (std::size_t k = 0; k < n; ++k) {
      const Ev& e = elems[k];
      const std::size_t i = idx(e.lane, e.slot);
      cell[k] = i;
      cells_[i].defect_occurred = kInf;
      cells_[i].defect_clears = kInf;
      rs_scratch_[k] = &streams_[e.lane];
      if (age_clock_) {
        // NHPP in drive age: next arrival solves H(age') = H(age) + Exp(1).
        age_scratch_[k] = e.t - cells_[i].install_time;
      }
    }
    bulk_sample(Law::kLatent, elems, n, age_clock_);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = cell[k];
      // A slot receiving a countdown is never restoring (countdowns arm
      // just-installed or just-scrubbed drives) and both defect timers were
      // set infinite above, so the four-way refresh collapses to
      // min(op, ld). Tie priority matches the canonical chain: the infinite
      // clear/restore timers only tie when both finalists are infinite, and
      // op-law lifetimes are finite here (the slot is operational).
      const double ld = elems[k].t + out_scratch_[k];
      const double op = cells_[i].next_op;
      cells_[i].next_ld = ld;
      next_event_[i] = std::min(op, ld);
      next_kind_[i] = op <= ld ? kKindOp : kKindLd;
    }
    return;
  }
  Ev* const cg = countdown_gather_.data();
  std::size_t ng = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const Ev& e = elems[k];
    const std::size_t i = idx(e.lane, e.slot);
    cells_[i].defect_occurred = kInf;
    cells_[i].defect_clears = kInf;
    if (!kernels_[e.slot].latent.present()) {
      // Same collapsed refresh as below with ld = +inf: the slot is
      // operational, so next_op_ is finite and wins.
      cells_[i].next_ld = kInf;
      next_event_[i] = cells_[i].next_op;
      next_kind_[i] = kKindOp;
    } else {
      cell[ng] = i;
      cg[ng++] = e;
    }
  }
  if (ng == 0) return;
  for (std::size_t k = 0; k < ng; ++k) {
    const Ev& e = cg[k];
    rs_scratch_[k] = &streams_[e.lane];
    if (age_clock_) {
      age_scratch_[k] = e.t - cells_[cell[k]].install_time;
    }
  }
  bulk_sample(Law::kLatent, cg, ng, age_clock_);
  for (std::size_t k = 0; k < ng; ++k) {
    const std::size_t i = cell[k];
    // See the uniform path: non-restoring slot, defect timers infinite.
    const double ld = cg[k].t + out_scratch_[k];
    const double op = cells_[i].next_op;
    cells_[i].next_ld = ld;
    next_event_[i] = std::min(op, ld);
    next_kind_[i] = op <= ld ? kKindOp : kKindLd;
  }
}

void BatchGroupSimulator::scalar_defect_countdown(std::uint32_t lane,
                                                  std::uint32_t slot,
                                                  double now) {
  const std::size_t i = idx(lane, slot);
  const CompiledLaw& latent = kernels_[slot].latent;
  cells_[i].defect_occurred = kInf;
  cells_[i].defect_clears = kInf;
  // Countdowns arm operational slots (just installed, scrubbed, or
  // cleared): the restore timer is infinite and both defect timers were
  // zeroed above, so the canonical four-way refresh collapses to
  // min(op, ld) with the bulk path's tie priority.
  double ld;
  if (!latent.present()) {
    ld = kInf;
  } else if (age_clock_) {
    const double age = now - cells_[i].install_time;
    ld = now + (tilted_ ? latent.sample_residual_tilted(
                              ld_tilt_, age, age + (cfg_.mission_hours - now),
                              streams_[lane], lw_[lane])
                        : latent.sample_residual(age, streams_[lane]));
  } else {
    ld = now + (tilted_ ? latent.sample_tilted(ld_tilt_,
                                               cfg_.mission_hours - now,
                                               streams_[lane], lw_[lane])
                        : latent.sample(streams_[lane]));
  }
  const double op = cells_[i].next_op;
  cells_[i].next_ld = ld;
  next_event_[i] = std::min(op, ld);
  next_kind_[i] = op <= ld ? kKindOp : kKindLd;
}

void BatchGroupSimulator::stripe_check(std::uint32_t lane, std::uint32_t slot,
                                       double now) {
  if (cfg_.stripe_zones == 0) return;
  rng::RandomStream& rs = streams_[lane];
  const std::size_t i = idx(lane, slot);
  const std::size_t base = static_cast<std::size_t>(lane) * nslots_;
  cells_[i].defect_zone = rs.uniform_index(cfg_.stripe_zones);
  unsigned sharing = 1;
  for (std::uint32_t j = 0; j < nslots_; ++j) {
    if (j == slot) continue;
    const std::size_t i2 = base + j;
    if (!restoring(i2) && defective(i2) && cells_[i2].defect_zone == cells_[i].defect_zone) {
      ++sharing;
    }
  }
  if (sharing > cfg_.redundancy && now >= group_failed_until_[lane]) {
    results_[lane].ddfs.push_back(
        {now, raid::DdfKind::kLatentStripeCollision});
    for (std::uint32_t j = 0; j < nslots_; ++j) {
      const std::size_t i2 = base + j;
      if (!restoring(i2) && defective(i2) &&
          cells_[i2].defect_zone == cells_[i].defect_zone) {
        scalar_defect_countdown(lane, j, now);
      }
    }
  }
}

void BatchGroupSimulator::scalar_latent_defect(std::uint32_t lane,
                                               std::uint32_t slot,
                                               double now) {
  const std::size_t i = idx(lane, slot);
  const CompiledLaw& scrub = kernels_[slot].scrub;
  ++c_latent_[lane];
  const double cl = scrub.present() ? now + scrub.sample(streams_[lane]) : kInf;
  cells_[i].defect_occurred = now;
  cells_[i].defect_clears = cl;
  cells_[i].next_ld = kInf;
  // The slot that just grew a defect is operational (restore timer
  // infinite) and its defect timer went infinite, so the refresh
  // collapses to min(op, clears); a tie dispatches the clear, exactly
  // the canonical chain's priority.
  const double op = cells_[i].next_op;
  next_event_[i] = std::min(op, cl);
  next_kind_[i] = cl <= op ? kKindClear : kKindOp;
  stripe_check(lane, slot, now);
}

void BatchGroupSimulator::begin_restore(std::uint32_t lane,
                                        std::uint32_t slot, double now,
                                        double duration) {
  const std::size_t i = idx(lane, slot);
  awaiting_spare_[i] = 0;
  const double rd = now + duration;
  cells_[i].restore_done = rd;
  // The failing handler zeroed every other timer to +inf — and a slot
  // awaiting a spare keeps them there (no failures, defects, or clears
  // while down) — so the refresh collapses to the restore timer. An
  // infinite restore end ties every timer at +inf, where the canonical
  // chain resolves to the clear.
  next_event_[i] = rd;
  next_kind_[i] = rd < kInf ? kKindRestore : kKindClear;
  if (slot == ddf_slot_[lane]) {
    group_failed_until_[lane] = rd;
  }
}

void BatchGroupSimulator::request_spare(std::uint32_t lane,
                                        std::uint32_t slot, double now,
                                        double duration) {
  if (!cfg_.spare_pool) {
    begin_restore(lane, slot, now, duration);
    return;
  }
  if (spares_available_[lane] > 0) {
    --spares_available_[lane];
    pending_orders_[lane].push_back(now + cfg_.spare_pool->replenish_hours);
    begin_restore(lane, slot, now, duration);
    return;
  }
  const std::size_t i = idx(lane, slot);
  awaiting_spare_[i] = 1;
  cells_[i].restore_done = kInf;
  cells_[i].pending_restore_duration = duration;
  // Every timer of a slot waiting on a spare is +inf (the failure zeroed
  // op/latent/defect state and the restore cannot start); the all-inf
  // tie resolves to the clear, as the canonical chain would.
  next_event_[i] = kInf;
  next_kind_[i] = kKindClear;
  spare_queue_[lane].push_back(slot);
  if (slot == ddf_slot_[lane]) group_failed_until_[lane] = kInf;
}

double BatchGroupSimulator::next_spare_arrival(
    std::uint32_t lane) const noexcept {
  double t = kInf;
  for (const double arrival : pending_orders_[lane]) t = std::min(t, arrival);
  return t;
}

void BatchGroupSimulator::handle_spare_arrival(std::uint32_t lane,
                                               double now) {
  std::vector<double>& orders = pending_orders_[lane];
  for (std::size_t k = 0; k < orders.size(); ++k) {
    if (orders[k] <= now) {
      orders[k] = orders.back();
      orders.pop_back();
      break;
    }
  }
  std::vector<std::uint32_t>& queue = spare_queue_[lane];
  std::size_t& head = spare_queue_head_[lane];
  if (head >= queue.size()) {
    ++spares_available_[lane];
    return;
  }
  const std::uint32_t slot = queue[head++];
  if (head == queue.size()) {
    queue.clear();
    head = 0;
  }
  orders.push_back(now + cfg_.spare_pool->replenish_hours);
  ++c_spare_[lane];
  begin_restore(lane, slot, now, cells_[idx(lane, slot)].pending_restore_duration);
}

double BatchGroupSimulator::probe_probability(std::uint32_t lane,
                                              std::uint32_t failed_slot,
                                              double now,
                                              double window) const {
  unsigned base_faults = 0;
  std::vector<double>& p = probe_p_;
  std::size_t np = 0;
  const std::size_t base = static_cast<std::size_t>(lane) * nslots_;
  for (std::uint32_t j = 0; j < nslots_; ++j) {
    if (j == failed_slot) continue;
    const std::size_t i = base + j;
    if (restoring(i)) {
      ++base_faults;
      continue;
    }
    probe_age_[np] = now - cells_[i].install_time;
    probe_slot_[np] = j;
    ++np;
  }
  const unsigned needed =
      cfg_.redundancy > base_faults ? cfg_.redundancy - base_faults : 0;
  if (needed == 0) return 0.0;
  if (needed > np) return 0.0;
  // Flat hazard passes: each surviving slot's h0, then each h1, then the
  // window probabilities. Same per-slot arithmetic as interleaving them —
  // cum_hazard is a pure function — but the pow calls are independent
  // back to back, so they overlap instead of serializing.
  for (std::size_t k = 0; k < np; ++k) {
    probe_h0_[k] = kernels_[probe_slot_[k]].op.cum_hazard(probe_age_[k]);
  }
  for (std::size_t k = 0; k < np; ++k) {
    probe_h1_[k] =
        kernels_[probe_slot_[k]].op.cum_hazard(probe_age_[k] + window);
  }
  double max_p = 0.0;
  for (std::size_t k = 0; k < np; ++k) {
    const double pj = -std::expm1(probe_h0_[k] - probe_h1_[k]);
    p[k] = std::clamp(pj, 0.0, 1.0);
    max_p = std::max(max_p, p[k]);
  }
  if (max_p == 0.0) return 0.0;
  // Shared exact m-overlap tail (util::poisson_binomial_tail): the same DP
  // arithmetic as the scalar engine's probe, so the probes cannot drift.
  return util::poisson_binomial_tail(p.data(), np, needed,
                                     probe_dist_.data());
}

double BatchGroupSimulator::declustered_restore_scale(
    std::uint32_t lane, std::uint32_t failed_slot) const noexcept {
  const std::size_t base = static_cast<std::size_t>(lane) * nslots_;
  unsigned sources = 0;
  for (std::uint32_t j = 0; j < nslots_; ++j) {
    if (j == failed_slot) continue;
    if (!restoring(base + j)) ++sources;
  }
  return static_cast<double>(cfg_.data_drives()) /
         static_cast<double>(std::max(1u, sources));
}

void BatchGroupSimulator::process_spare_arrivals() {
  // Spare arrivals dispatch before any slot event of the round (the
  // scalar loop's <= tie) and draw no RNG; handle_spare_arrival touches
  // only its lane's state, so bucket order — stable lane order — gives
  // exactly the per-lane sequence the inline handling produced.
  for (std::size_t k = 0; k < n_spare_; ++k) {
    const Ev& e = bkt_spare_[k];
    if (any_trace_ && traces_[e.lane]) {
      traces_[e.lane]->record(e.t, obs::TraceEventKind::kSpareArrival,
                              obs::TraceEvent::kNoSlot);
    }
    handle_spare_arrival(e.lane, e.t);
  }
}

void BatchGroupSimulator::process_scrub_completions() {
  if (n_clear_ == 0) return;
  const Ev* const ev = bkt_clear_.data();
  for (std::size_t k = 0; k < n_clear_; ++k) {
    const Ev& e = ev[k];
    if (any_trace_ && traces_[e.lane]) {
      traces_[e.lane]->record(e.t, obs::TraceEventKind::kScrubComplete,
                              e.slot);
    }
    ++c_scrub_[e.lane];
  }
  bulk_defect_countdown(ev, n_clear_);
}

void BatchGroupSimulator::process_restore_dones() {
  if (n_restore_ == 0) return;
  const Ev* const ev = bkt_restore_.data();
  // Install the fresh drives: fresh op lifetimes first (the scalar
  // install's first draw), then the defect countdowns (its second draw).
  // The install pass caches each element's cell index; the lifetime
  // scatter reuses it (bulk_defect_countdown then recycles the cache
  // for its own passes).
  std::size_t* const cell = cell_scratch_.data();
  for (std::size_t k = 0; k < n_restore_; ++k) {
    const Ev& e = ev[k];
    if (any_trace_ && traces_[e.lane]) {
      traces_[e.lane]->record(e.t, obs::TraceEventKind::kRestoreDone, e.slot);
    }
    ++c_restore_[e.lane];
    const std::size_t i = idx(e.lane, e.slot);
    cell[k] = i;
    cells_[i].install_time = e.t;
    cells_[i].restore_done = kInf;
    awaiting_spare_[i] = 0;
    rs_scratch_[k] = &streams_[e.lane];
  }
  bulk_sample(Law::kOp, ev, n_restore_, false);
  for (std::size_t k = 0; k < n_restore_; ++k) {
    cells_[cell[k]].next_op = ev[k].t + out_scratch_[k];
  }
  bulk_defect_countdown(ev, n_restore_);
  // Element-wise tail: reconstruction defects and DDF freeze ends.
  const double recon_p = cfg_.reconstruction_defect_probability;
  for (std::size_t x = 0; x < n_restore_; ++x) {
    const Ev& e = ev[x];
    TrialResult& res = results_[e.lane];
    const std::size_t ddfs_before = res.ddfs.size();
    if (recon_p > 0.0 && streams_[e.lane].bernoulli(recon_p)) {
      scalar_latent_defect(e.lane, e.slot, e.t);
    }
    if (group_failed_until_[e.lane] > 0.0 &&
        e.t >= group_failed_until_[e.lane]) {
      if (cfg_.clear_defects_on_ddf_restore) {
        const std::size_t base = static_cast<std::size_t>(e.lane) * nslots_;
        for (std::uint32_t j = 0; j < nslots_; ++j) {
          if (defective(base + j)) {
            scalar_defect_countdown(e.lane, j, e.t);
          }
        }
      }
      group_failed_until_[e.lane] = 0.0;
      ddf_slot_[e.lane] = SIZE_MAX;
    }
    if (any_trace_ && traces_[e.lane] && res.ddfs.size() > ddfs_before) {
      traces_[e.lane]->record(e.t, obs::TraceEventKind::kDdf, e.slot);
    }
  }
}

void BatchGroupSimulator::process_op_failures() {
  if (n_op_ == 0) return;
  const Ev* const ev = bkt_op_.data();
  // The restore-duration draw leads the scalar handler; batch it.
  for (std::size_t k = 0; k < n_op_; ++k) {
    rs_scratch_[k] = &streams_[ev[k].lane];
  }
  bulk_sample(Law::kRestore, ev, n_op_, false);
  for (std::size_t k = 0; k < n_op_; ++k) {
    const Ev& e = ev[k];
    double restore_duration = out_scratch_[k];
    if (declustered_) {
      // One event per lane per round, and the earlier elements of this
      // bucket belong to other lanes, so this lane's census state is
      // exactly what the scalar engine would see at this instant; the
      // `base * scale` product order matches the scalar handler.
      restore_duration *= declustered_restore_scale(e.lane, e.slot);
    }
    TrialResult& res = results_[e.lane];
    obs::TrialTrace* trace = any_trace_ ? traces_[e.lane] : nullptr;
    if (trace) {
      trace->record(e.t, obs::TraceEventKind::kOpFailure, e.slot);
    }
    const std::size_t ddfs_before = res.ddfs.size();
    ++c_op_[e.lane];
    if (e.t >= group_failed_until_[e.lane]) {
      const std::size_t base = static_cast<std::size_t>(e.lane) * nslots_;
      unsigned down = 1;
      unsigned defective_count = 0;
      for (std::uint32_t j = 0; j < nslots_; ++j) {
        if (j == e.slot) continue;
        const std::size_t i2 = base + j;
        if (restoring(i2)) {
          ++down;
        } else if (defective(i2)) {
          ++defective_count;
        }
      }
      if (down + defective_count > cfg_.redundancy) {
        const raid::DdfKind kind = down > cfg_.redundancy
                                       ? raid::DdfKind::kDoubleOperational
                                       : raid::DdfKind::kLatentThenOp;
        res.ddfs.push_back({e.t, kind});
        group_failed_until_[e.lane] = e.t + restore_duration;
        ddf_slot_[e.lane] = e.slot;
      }
      const double window =
          std::min(restore_duration, cfg_.mission_hours - e.t);
      if (probe_ && window > 0.0) {
        res.double_op_probe.emplace_back(
            e.t, probe_probability(e.lane, e.slot, e.t, window));
      }
    }
    const std::size_t i = idx(e.lane, e.slot);
    cells_[i].defect_occurred = kInf;
    cells_[i].defect_clears = kInf;
    cells_[i].next_op = kInf;
    cells_[i].next_ld = kInf;
    request_spare(e.lane, e.slot, e.t, restore_duration);
    if (trace && res.ddfs.size() > ddfs_before) {
      trace->record(e.t, obs::TraceEventKind::kDdf, e.slot);
    }
  }
}

void BatchGroupSimulator::process_latent_defects() {
  if (n_ld_ == 0) return;
  const Ev* const ev = bkt_ld_.data();
  // With a slot-uniform scrub law the gathered subset is either the whole
  // bucket or empty, so no subset copy is needed — and the per-element
  // kernel probe hoists out of both passes; mixed-law groups copy the
  // scrubbed elements out so bulk_sample sees each element's own slot.
  const bool uniform_scrub =
      uniform_law_[static_cast<std::size_t>(Law::kScrub)];
  const bool all_scrubbed = uniform_scrub && kernels_[0].scrub.present();
  Ev* const g = gather_.data();
  std::size_t* const cell = cell_scratch_.data();
  std::size_t ng = 0;
  if (all_scrubbed) {
    for (std::size_t k = 0; k < n_ld_; ++k) {
      const Ev& e = ev[k];
      if (any_trace_ && traces_[e.lane]) {
        traces_[e.lane]->record(e.t, obs::TraceEventKind::kLatentDefect,
                                e.slot);
      }
      ++c_latent_[e.lane];
      const std::size_t i = idx(e.lane, e.slot);
      cell[k] = i;
      cells_[i].defect_occurred = e.t;
      rs_scratch_[k] = &streams_[e.lane];
    }
    ng = n_ld_;
  } else {
    for (std::size_t k = 0; k < n_ld_; ++k) {
      const Ev& e = ev[k];
      if (any_trace_ && traces_[e.lane]) {
        traces_[e.lane]->record(e.t, obs::TraceEventKind::kLatentDefect,
                                e.slot);
      }
      ++c_latent_[e.lane];
      const std::size_t i = idx(e.lane, e.slot);
      cell[k] = i;
      cells_[i].defect_occurred = e.t;
      if (kernels_[e.slot].scrub.present()) {
        rs_scratch_[ng] = &streams_[e.lane];
        if (!uniform_scrub) g[ng] = e;
        ++ng;
      } else {
        cells_[i].defect_clears = kInf;
      }
    }
  }
  bulk_sample(Law::kScrub, uniform_scrub ? ev : g, ng, false);
  // One tail pass: scatter the scrub countdowns (consumed in bucket order,
  // the order the draws were gathered) and finish each element. A lane
  // dispatches at most one event per round, so the stripe checks only
  // touch their own lane's already-final state. Stripe collisions — and
  // therefore DDFs and their trace records — are impossible without zones.
  // The slot that just grew a defect is operational (its defect timer is
  // what fired) with next_ld going infinite, so the four-way refresh
  // collapses to min(op, clears); a clears/op tie dispatches the clear,
  // exactly as refresh_next_event's priority chain would.
  std::size_t k = 0;
  for (std::size_t x = 0; x < n_ld_; ++x) {
    const Ev& e = ev[x];
    const std::size_t i = cell[x];
    const bool scrubbed =
        all_scrubbed || kernels_[e.slot].scrub.present();
    const double cl = scrubbed ? e.t + out_scratch_[k++] : kInf;
    if (scrubbed) cells_[i].defect_clears = cl;
    const double op = cells_[i].next_op;
    cells_[i].next_ld = kInf;
    next_event_[i] = std::min(op, cl);
    next_kind_[i] = cl <= op ? kKindClear : kKindOp;
    if (has_zones_) {
      const std::size_t ddfs_before = results_[e.lane].ddfs.size();
      stripe_check(e.lane, e.slot, e.t);
      if (any_trace_ && traces_[e.lane] &&
          results_[e.lane].ddfs.size() > ddfs_before) {
        traces_[e.lane]->record(e.t, obs::TraceEventKind::kDdf, e.slot);
      }
    }
  }
}

void BatchGroupSimulator::run_lane(const rng::StreamFactory& streams,
                                   std::uint64_t first_stream_index,
                                   std::size_t count,
                                   std::span<obs::TrialTrace* const> traces) {
  RAIDREL_REQUIRE(count >= 1 && count <= width_,
                  "lane count must be in [1, width]");
  RAIDREL_REQUIRE(traces.empty() || traces.size() >= count,
                  "need one trace pointer per lane element");
  count_ = count;
  if (forward_) {
    occ_ = LaneOccupancy{};
    for (std::size_t w = 0; w < count; ++w) {
      auto rs = streams.stream(first_stream_index + w);
      forward_->run_trial(rs, results_[w],
                          traces.empty() ? nullptr : traces[w]);
    }
    return;
  }
  streams_.clear();
  for (std::size_t w = 0; w < count; ++w) {
    streams_.push_back(streams.stream(first_stream_index + w));
  }
  any_trace_ = false;
  for (std::uint32_t w = 0; w < count; ++w) {
    results_[w].clear();
    obs::TrialTrace* tt = traces.empty() ? nullptr : traces[w];
    if (tt) {
      tt->clear();
      any_trace_ = true;
    }
    traces_[w] = tt;
    c_op_[w] = 0;
    c_latent_[w] = 0;
    c_scrub_[w] = 0;
    c_restore_[w] = 0;
    c_spare_[w] = 0;
    lw_[w] = 0.0;
    group_failed_until_[w] = 0.0;
    ddf_slot_[w] = SIZE_MAX;
    spares_available_[w] = cfg_.spare_pool ? cfg_.spare_pool->capacity : 0;
    pending_orders_[w].clear();
    spare_queue_[w].clear();
    spare_queue_head_[w] = 0;
  }

  // Install the initial drives slot-major; each lane's stream still draws
  // in the scalar order (slot 0 op, slot 0 latent, slot 1 op, ...) because
  // every bulk pass visits lanes in index order.
  for (std::uint32_t s = 0; s < nslots_; ++s) {
    for (std::uint32_t w = 0; w < count; ++w) {
      const std::size_t i = idx(w, s);
      cells_[i].install_time = 0.0;
      cells_[i].restore_done = kInf;
      awaiting_spare_[i] = 0;
      rs_scratch_[w] = &streams_[w];
      gather_[w] = {w, s, 0.0};
    }
    bulk_sample(Law::kOp, gather_.data(), count, false);
    for (std::uint32_t w = 0; w < count; ++w) {
      cells_[idx(w, s)].next_op = 0.0 + out_scratch_[w];
    }
    bulk_defect_countdown(gather_.data(), count);
  }

  active_.clear();
  for (std::uint32_t w = 0; w < count; ++w) active_.push_back(w);
  const double mission = cfg_.mission_hours;
  const bool has_pool = cfg_.spare_pool.has_value();

  // Lockstep rounds: every still-running lane dispatches exactly the event
  // its scalar loop would pick next; the round then batches the per-kind
  // refill draws across lanes. The whole argmin + classify + settle sweep
  // is one fused lane-layer call (sim/lane_ops.h round_dispatch:
  // comparisons only, bit-identical to the scalar first-minimum loop, with
  // settled lanes compacted out of active_ in place) — the per-round
  // processors then drain the kind buckets it emitted. Legal because a
  // lane's scan reads only its own timer slice and every handler this
  // round runs after the sweep, in bucket (= lane) order.
  const double* const tnext = next_event_.data();
  const std::uint8_t* const kinds = next_kind_.data();
  Ev* const bufs[4] = {bkt_clear_.data(), bkt_restore_.data(),
                       bkt_op_.data(), bkt_ld_.data()};
  occ_ = LaneOccupancy{};
  std::size_t nlanes = count;
  std::uint64_t round = 0;
  while (nlanes != 0) {
    ++round;
    occ_.active_lane_rounds += nlanes;
    occ_.capacity_lane_rounds += count;
    // Occupancy decile: nlanes in [1, count] maps onto [0, 9].
    ++occ_.occupancy_hist[(nlanes * 10 - 1) / count];
    const double* spare_next = nullptr;
    if (has_pool) {
      // Stage each live lane's next spare arrival for the sweep's tie
      // check — the same pending-order scan the inline check performed.
      for (std::size_t a = 0; a < nlanes; ++a) {
        const std::uint32_t lane = active_[a];
        spare_next_[lane] = next_spare_arrival(lane);
      }
      spare_next = spare_next_.data();
    }
    std::size_t cnt[5];
    const std::size_t kept =
        ops_->round_dispatch(tnext, kinds, nslots_, active_.data(), nlanes,
                             mission, spare_next, bufs, bkt_spare_.data(), cnt);
    if (kept < nlanes) {
      const std::uint64_t settled = nlanes - kept;
      if (occ_.lanes_settled == 0) occ_.settle_rounds_min = round;
      occ_.settle_rounds_max = round;
      occ_.settle_rounds_sum += settled * round;
      occ_.lanes_settled += settled;
    }
    nlanes = kept;
    n_clear_ = cnt[kKindClear];
    n_restore_ = cnt[kKindRestore];
    n_op_ = cnt[kKindOp];
    n_ld_ = cnt[kKindLd];
    n_spare_ = cnt[4];
    if (n_spare_ != 0) process_spare_arrivals();
    process_scrub_completions();
    process_restore_dones();
    process_op_failures();
    process_latent_defects();
  }
  occ_.rounds = round;
  active_.resize(nlanes);

  // Fold the flat counters into the lane results.
  for (std::uint32_t w = 0; w < count; ++w) {
    TrialResult& res = results_[w];
    res.op_failures = c_op_[w];
    res.latent_defects = c_latent_[w];
    res.scrubs_completed = c_scrub_[w];
    res.restores_completed = c_restore_[w];
    res.spare_arrivals = c_spare_[w];
    res.log_weight = lw_[w];
  }
}

}  // namespace raidrel::sim
