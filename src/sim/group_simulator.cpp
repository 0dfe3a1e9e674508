#include "sim/group_simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"
#include "util/math.h"

namespace raidrel::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

void TrialResult::clear() {
  ddfs.clear();
  latent_credit.clear();
  latent_credited = false;
  first_drive_failures.clear();
  double_op_probe.clear();
  log_weight = 0.0;
  op_failures = 0;
  latent_defects = 0;
  scrubs_completed = 0;
  restores_completed = 0;
  spare_arrivals = 0;
}

namespace detail {

bool GroupCore::Slot::restoring() const noexcept {
  return restore_done < kInf || awaiting_spare;
}

bool GroupCore::Slot::defective() const noexcept {
  return defect_occurred < kInf;
}

SparePool::SparePool(std::optional<raid::SparePoolConfig> config)
    : config_(config) {}

void SparePool::reset() {
  available_ = config_ ? config_->capacity : 0;
  orders_.clear();
  queue_.clear();
  head_ = 0;
}

bool SparePool::take(double now) {
  if (!config_) return true;
  if (available_ == 0) return false;
  --available_;
  orders_.push_back(now + config_->replenish_hours);
  return true;
}

double SparePool::next_arrival() const noexcept {
  double t = kInf;
  for (double arrival : orders_) t = std::min(t, arrival);
  return t;
}

std::optional<SparePool::Waiter> SparePool::arrive(double now) {
  // Remove the (an) order arriving now.
  for (std::size_t k = 0; k < orders_.size(); ++k) {
    if (orders_[k] <= now) {
      orders_[k] = orders_.back();
      orders_.pop_back();
      break;
    }
  }
  if (head_ >= queue_.size()) {
    ++available_;
    return std::nullopt;
  }
  const Waiter waiter = queue_[head_++];
  if (head_ == queue_.size()) {
    // Drained: recycle the storage so the vector never grows past the
    // busiest starvation episode.
    queue_.clear();
    head_ = 0;
  }
  // The arriving spare is consumed immediately: reorder.
  orders_.push_back(now + config_->replenish_hours);
  return waiter;
}

GroupCore::GroupCore(const raid::GroupConfig& config, KernelPolicy policy,
                     const std::optional<TiltSpec>& tilt,
                     const LatentCurves* curves, bool probe)
    : cfg_(config), probe_(probe) {
  cfg_.validate();
  kernels_.reserve(cfg_.slots.size());
  for (const auto& slot : cfg_.slots) {
    kernels_.push_back(SlotKernel::compile(slot, policy));
  }
  // Slots usually share one law; bisect once per distinct neighbour.
  op_censor_.reserve(kernels_.size());
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    const CompiledLaw& op = kernels_[i].op;
    op_censor_.push_back(i > 0 && op == kernels_[i - 1].op
                             ? op_censor_.back()
                             : op.censor_index(cfg_.mission_hours));
  }
  if (tilt) {
    for (const SlotKernel& k : kernels_) validate_tilt(*tilt, k);
    op_tilt_ = HazardTilt(tilt->op_theta);
    ld_tilt_ = HazardTilt(tilt->ld_theta);
    tilted_ = true;
  }
  declustered_ = cfg_.rebuild == raid::RebuildModel::kDeclustered;
  credit_ = latent_credit_exclusion(cfg_, tilt) == nullptr;
  if (credit_) {
    RAIDREL_REQUIRE(curves != nullptr,
                    "an in-scope config needs its latent curves");
    for (const auto& slot : cfg_.slots) curves_.push_back(&curves->of(slot));
    first_drive_c_ = first_drive_constants(cfg_, curves_);
  }
  slots_.resize(cfg_.slots.size());
  if (probe_) {
    probe_p_.resize(slots_.size());
    probe_dist_.resize(slots_.size() + 1);
  }
}

void GroupCore::refresh_next_event(Slot& s) noexcept {
  s.next_event = std::min(std::min(s.next_op, s.restore_done),
                          std::min(s.next_ld, s.defect_clears));
}

inline void GroupCore::refresh_next_time() noexcept {
  // Locals, not members, so the scan compiles to branchless min/cmov.
  double t = kInf;
  std::size_t slot = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const double ti = slots_[i].next_event;
    if (ti < t) {
      t = ti;
      slot = i;
    }
  }
  next_time_ = t;
  next_slot_ = slot;
}

void GroupCore::start_defect_countdown(std::size_t i, double now,
                                       rng::RandomStream& rs) {
  Slot& s = slots_[i];
  const CompiledLaw& latent = kernels_[i].latent;
  s.defect_occurred = kInf;
  s.defect_clears = kInf;
  s.seen_clean = now;
  if (credit_ || !latent.present()) {
    s.next_ld = kInf;
    refresh_next_event(s);
    return;
  }
  // Tilted draws cap the proposal at the observation horizon — the oldest
  // drive age (residual clock) or longest lifetime (renewal clock) the
  // mission can still observe for this draw.
  if (cfg_.latent_clock == raid::LatentClock::kDriveAge) {
    // NHPP in drive age: next arrival solves H(age') = H(age) + Exp(1).
    const double age = now - s.install_time;
    s.next_ld =
        now + (tilted_ ? latent.sample_residual_tilted(
                             ld_tilt_, age, age + (cfg_.mission_hours - now),
                             rs, log_w_)
                       : latent.sample_residual(age, rs));
  } else {
    // Paper §5 renewal: a fresh TTLd from the moment of defect-freedom.
    s.next_ld = now + (tilted_ ? latent.sample_tilted(
                                     ld_tilt_, cfg_.mission_hours - now, rs,
                                     log_w_)
                               : latent.sample(rs));
  }
  refresh_next_event(s);
}

void GroupCore::install_fresh_drive(std::size_t i, double now,
                                    rng::RandomStream& rs) {
  Slot& s = slots_[i];
  s.install_time = now;
  s.restore_done = kInf;
  s.awaiting_spare = false;
  // A lifetime censored at the mission end is past it from any install
  // time, and run_missions stops before reading it: +inf stands in.
  s.next_op =
      now + (tilted_ ? kernels_[i].op.sample_tilted(
                           op_tilt_, cfg_.mission_hours - now, rs, log_w_)
                     : kernels_[i].op.sample_censored(op_censor_[i], rs));
  start_defect_countdown(i, now, rs);  // refreshes the cached next event
}

double GroupCore::probe_probability(std::size_t failed_slot, double now,
                                    double window) const {
  // Existing faults among the other drives (down / rebuilding). Every
  // operational peer contributes, no matter how wide the group — the
  // scratch buffers are sized to the group in the constructor.
  unsigned base_faults = 0;
  std::vector<double>& p = probe_p_;
  std::size_t np = 0;
  double max_p = 0.0;
  for (std::size_t j = 0; j < slots_.size(); ++j) {
    if (j == failed_slot) continue;
    const Slot& s = slots_[j];
    if (s.restoring()) {
      ++base_faults;
      continue;
    }
    // Probability this operational drive fails within the window, from its
    // exact residual life: 1 - S(age + w)/S(age).
    const CompiledLaw& op = kernels_[j].op;
    const double age = now - s.install_time;
    const double h0 = op.cum_hazard(age);
    const double h1 = op.cum_hazard(age + window);
    const double pj = -std::expm1(h0 - h1);
    p[np++] = std::clamp(pj, 0.0, 1.0);
    max_p = std::max(max_p, p[np - 1]);
  }
  const unsigned needed =
      cfg_.redundancy > base_faults ? cfg_.redundancy - base_faults : 0;
  // A failure that lands in an already-critical group *completes* a data
  // loss that was credited (in probability) to the failure that opened the
  // exposure window; contributing again here would double count.
  if (needed == 0) return 0.0;
  if (needed > np) return 0.0;
  // When every peer's window probability underflowed to zero the DP can
  // only return zero — skip it (common in short windows late in life).
  if (max_p == 0.0) return 0.0;
  // Exact m-overlap event probability for any redundancy: Poisson-binomial
  // tail P(#failures >= needed) over the count distribution (group sizes
  // are small). Shared with the batched engine through util so the two
  // probes cannot drift.
  return util::poisson_binomial_tail(p.data(), np, needed,
                                     probe_dist_.data());
}

double GroupCore::declustered_restore_scale(
    std::size_t failed_slot) const noexcept {
  // Surviving rebuild sources at the failure instant: the other drives not
  // down or rebuilding. Defective-but-operational drives still serve reads
  // and count as sources.
  unsigned sources = 0;
  for (std::size_t j = 0; j < slots_.size(); ++j) {
    if (j == failed_slot) continue;
    if (!slots_[j].restoring()) ++sources;
  }
  return static_cast<double>(cfg_.data_drives()) /
         static_cast<double>(std::max(1u, sources));
}

void GroupCore::handle_op_failure(std::size_t group, std::size_t i,
                                  double now, rng::RandomStream& rs,
                                  TrialResult& out, SparePool& pool) {
  Slot& s = slots_[i];
  ++out.op_failures;
  if (s.first_drive) {
    // A drive's op lifetime never depends on group state, so whether and
    // when the first drive fails has a known law (docs/MODEL.md §19).
    s.first_drive = false;
    out.first_drive_failures.emplace_back(now, first_drive_c_[i]);
  }

  double restore_duration = kernels_[i].restore.sample(rs);
  if (declustered_) {
    // Declustered placement: the effective restore time is fixed at the
    // failure instant (in-flight rebuilds are never re-scaled) and the
    // scaled duration is what the freeze window, the probe window and the
    // rebuild all see. The batched engine applies the identical
    // `base * scale` product, preserving bit-identity.
    restore_duration *= declustered_restore_scale(i);
  }

  if (now >= group_failed_until_) {
    // Fault census at the failure instant: drives down or rebuilding
    // (including this one) plus *other* drives carrying outstanding defects.
    unsigned down = 1;
    unsigned defective = 0;
    for (std::size_t j = 0; j < slots_.size(); ++j) {
      if (j == i) continue;
      const Slot& other = slots_[j];
      if (other.restoring()) {
        ++down;
      } else if (other.defective()) {
        ++defective;
      }
    }
    bool loss = down + defective > cfg_.redundancy;
    if (credit_ && !loss) {
      // Latent credit (m = 1 and no other drive down, so every partner is
      // operational): credit the probability that some partner is
      // defective, then realize it so the sample path freezes and clears
      // as the event path would. Partners found clean restart their
      // renewals from now (the up phase is memoryless).
      const double p = latent_loss_probability(i, now);
      out.latent_credit.emplace_back(now, p);
      loss = rs.bernoulli(p);
      if (!loss) {
        for (Slot& other : slots_) other.seen_clean = now;
      }
    }
    if (loss) {
      const raid::DdfKind kind = down > cfg_.redundancy
                                     ? raid::DdfKind::kDoubleOperational
                                     : raid::DdfKind::kLatentThenOp;
      out.ddfs.push_back({now, kind});
      // No further data loss until the concomitant restore completes
      // (paper §5); the group then re-enters state 1. When the rebuild is
      // blocked on an empty spare pool, the wait below extends the freeze
      // to the actual restore completion.
      group_failed_until_ = now + restore_duration;
      ddf_slot_ = i;
    }
    // Rare-event probe for (multi-)operational data loss initiated by this
    // failure: probability that enough other drives fail inside the window.
    // Under a starved spare pool the true exposure window also includes the
    // wait for a spare, which is unknown here — the probe then understates;
    // use the counting estimator for spare-pool studies.
    const double window = std::min(restore_duration, cfg_.mission_hours - now);
    if (probe_ && window > 0.0) {
      out.double_op_probe.emplace_back(now,
                                       probe_probability(i, now, window));
    }
  }

  // The failed drive is replaced: its own latent defect leaves with it.
  s.defect_occurred = kInf;
  s.defect_clears = kInf;
  s.next_op = kInf;
  s.next_ld = kInf;
  if (pool.take(now)) {
    begin_restore(i, now, restore_duration);
    return;
  }
  s.awaiting_spare = true;
  s.restore_done = kInf;
  s.pending_restore_duration = restore_duration;
  refresh_next_event(s);
  pool.wait({group, i});
  if (i == ddf_slot_) group_failed_until_ = kInf;  // resolved on arrival
}

void GroupCore::begin_restore(std::size_t i, double now, double duration) {
  Slot& s = slots_[i];
  s.awaiting_spare = false;
  s.restore_done = now + duration;
  refresh_next_event(s);
  if (i == ddf_slot_) {
    // The freeze that a spare-starved DDF left open-ended now has a
    // definite end: the concomitant restore's completion.
    group_failed_until_ = s.restore_done;
  }
}

void GroupCore::handle_restore_done(std::size_t i, double now,
                                    rng::RandomStream& rs, TrialResult& out) {
  ++out.restores_completed;
  install_fresh_drive(i, now, rs);
  if (cfg_.reconstruction_defect_probability > 0.0 &&
      rs.bernoulli(cfg_.reconstruction_defect_probability)) {
    // A write error slipped into the rebuilt data (paper §4.2): the new
    // drive starts life already defective. Not a DDF by itself.
    handle_latent_defect(i, now, rs, out);
  }
  if (group_failed_until_ > 0.0 && now >= group_failed_until_) {
    if (cfg_.clear_defects_on_ddf_restore) {
      // The restore that ends a DDF returns the group to the paper's
      // state 1: "all HDDs operating, no latent defects". Credited slots
      // carry no defect timers: every operational drive is clean now.
      for (std::size_t j = 0; j < slots_.size(); ++j) {
        if (credit_ ? !slots_[j].restoring() : slots_[j].defective()) {
          start_defect_countdown(j, now, rs);
        }
      }
    }
    group_failed_until_ = 0.0;
    ddf_slot_ = SIZE_MAX;
  }
}

double GroupCore::latent_loss_probability(std::size_t failed_slot,
                                          double now) const {
  double clean = 1.0;
  for (std::size_t j = 0; j < slots_.size(); ++j) {
    if (j == failed_slot || slots_[j].restoring()) continue;
    clean *= 1.0 - (*curves_[j])(now - slots_[j].seen_clean);
  }
  return 1.0 - clean;
}

void GroupCore::handle_latent_defect(std::size_t i, double now,
                                     rng::RandomStream& rs,
                                     TrialResult& out) {
  Slot& s = slots_[i];
  const CompiledLaw& scrub = kernels_[i].scrub;
  ++out.latent_defects;
  s.defect_occurred = now;
  s.defect_clears = scrub.present() ? now + scrub.sample(rs) : kInf;
  // No new defect countdown until this defect is scrubbed away (paper §5's
  // alternating renewal: TTScrub is added, then a new TTLd is sampled).
  s.next_ld = kInf;
  refresh_next_event(s);

  if (cfg_.stripe_zones > 0) {
    // Stripe-collision refinement (off in the paper's model): place the
    // defect in a random zone and check whether outstanding defects now
    // cover the same zone on more drives than the parity can rebuild.
    s.defect_zone = rs.uniform_index(cfg_.stripe_zones);
    unsigned sharing = 1;
    for (std::size_t j = 0; j < slots_.size(); ++j) {
      if (j == i) continue;
      const Slot& other = slots_[j];
      if (!other.restoring() && other.defective() &&
          other.defect_zone == s.defect_zone) {
        ++sharing;
      }
    }
    if (sharing > cfg_.redundancy && now >= group_failed_until_) {
      out.ddfs.push_back({now, raid::DdfKind::kLatentStripeCollision});
      // The collision is discovered (the stripe is unreadable); its
      // defects are mapped out and rewritten: clear them and restart the
      // countdowns. The array itself keeps running, so no freeze window.
      for (std::size_t j = 0; j < slots_.size(); ++j) {
        Slot& other = slots_[j];
        if (!other.restoring() && other.defective() &&
            other.defect_zone == s.defect_zone) {
          start_defect_countdown(j, now, rs);
        }
      }
    }
  }
}

void GroupCore::start(rng::RandomStream& rs) {
  log_w_ = 0.0;
  group_failed_until_ = 0.0;
  ddf_slot_ = SIZE_MAX;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    install_fresh_drive(i, 0.0, rs);
    slots_[i].first_drive = credit_;
  }
  refresh_next_time();
}

void GroupCore::resume_restore(std::size_t slot, double now) {
  begin_restore(slot, now, slots_[slot].pending_restore_duration);
  refresh_next_time();
}

inline void GroupCore::step(std::size_t group, rng::RandomStream& rs,
                            TrialResult& out, SparePool& pool,
                            obs::TrialTrace* trace) {
  const double t = next_time_;
  const std::size_t i = next_slot_;
  const Slot& s = slots_[i];
  const auto slot_id = static_cast<std::uint32_t>(i);
  const auto group_id = static_cast<std::uint32_t>(group);
  const std::size_t ddfs_before = out.ddfs.size();
  // Within one slot at one instant, clear defects before censusing, then
  // restores, then failures, then new defects. Each branch records its own
  // trace kind: classifying first and dispatching on the kind afterwards
  // adds a second unpredictable branch per event.
  if (s.defect_clears <= t) {
    if (trace) {
      trace->record(t, obs::TraceEventKind::kScrubComplete, slot_id,
                    group_id);
    }
    ++out.scrubs_completed;
    start_defect_countdown(i, t, rs);
  } else if (s.restore_done <= t) {
    if (trace) {
      trace->record(t, obs::TraceEventKind::kRestoreDone, slot_id, group_id);
    }
    handle_restore_done(i, t, rs, out);
  } else if (s.next_op <= t) {
    if (trace) {
      trace->record(t, obs::TraceEventKind::kOpFailure, slot_id, group_id);
    }
    handle_op_failure(group, i, t, rs, out, pool);
  } else {
    RAIDREL_ASSERT(s.next_ld <= t, "event loop picked a phantom event");
    if (trace) {
      trace->record(t, obs::TraceEventKind::kLatentDefect, slot_id, group_id);
    }
    handle_latent_defect(i, t, rs, out);
  }
  if (trace && out.ddfs.size() > ddfs_before) {
    trace->record(t, obs::TraceEventKind::kDdf, slot_id, group_id);
  }
  refresh_next_time();
}

GroupTournament::GroupTournament(std::size_t groups) : leaves_(1) {
  while (leaves_ < groups) leaves_ *= 2;
  nodes_.resize(2 * leaves_);
  const std::size_t last = groups > 0 ? groups - 1 : 0;
  for (std::size_t g = 0; g < leaves_; ++g) {
    nodes_[leaves_ + g] = std::min(g, last);
  }
}

void GroupTournament::build(std::span<const GroupCore> cores) noexcept {
  for (std::size_t node = leaves_ - 1; node > 0; --node) {
    const std::size_t left = nodes_[2 * node];
    const std::size_t right = nodes_[2 * node + 1];
    nodes_[node] =
        cores[right].next_time() < cores[left].next_time() ? right : left;
  }
}

inline void GroupTournament::update(std::span<const GroupCore> cores,
                                    std::size_t group) noexcept {
  // Carry the match winner up the path, so each level reads one rival.
  std::size_t win = group;
  double t = cores[group].next_time();
  for (std::size_t node = leaves_ + group; node > 1; node /= 2) {
    const std::size_t rival = nodes_[node ^ 1];
    const double rival_t = cores[rival].next_time();
    // A left-side rival (this node is a right child) wins ties.
    if ((node & 1) != 0 ? rival_t <= t : rival_t < t) {
      win = rival;
      t = rival_t;
    }
    nodes_[node / 2] = win;
  }
}

void run_missions(std::span<GroupCore> cores, SparePool& pool,
                  GroupTournament& tree, rng::RandomStream& rs,
                  std::span<TrialResult> out, obs::TrialTrace* trace) {
  if (trace) trace->clear();
  pool.reset();
  for (GroupCore& core : cores) core.start(rs);
  tree.build(cores);
  const double mission = cores.front().mission_hours();
  for (;;) {
    const std::size_t group = tree.winner();
    const double t = cores[group].next_time();
    const double spare_t = pool.next_arrival();
    // Ties go to the spare (<=, not <): a spare arriving at the same
    // instant as a slot event is in hand before the event is processed —
    // otherwise an op failure at that instant would queue for a drive that
    // has already been delivered.
    if (spare_t <= t && spare_t < kInf) {
      if (spare_t >= mission) break;
      if (trace) {
        trace->record(spare_t, obs::TraceEventKind::kSpareArrival,
                      obs::TraceEvent::kNoSlot);
      }
      if (const auto waiter = pool.arrive(spare_t)) {
        ++out[waiter->group].spare_arrivals;
        cores[waiter->group].resume_restore(waiter->slot, spare_t);
        tree.update(cores, waiter->group);
      }
      continue;
    }
    if (t >= mission) break;
    cores[group].step(group, rs, out[group], pool, trace);
    tree.update(cores, group);
  }
  for (std::size_t g = 0; g < cores.size(); ++g) {
    out[g].log_weight = cores[g].log_weight();
    out[g].latent_credited = cores[g].latent_credited();
  }
}

}  // namespace detail

GroupSimulator::GroupSimulator(const raid::GroupConfig& config,
                               KernelPolicy policy,
                               std::optional<TiltSpec> tilt,
                               std::shared_ptr<const LatentCurves> curves,
                               bool double_op_probe)
    : curves_(curves ? std::move(curves) : latent_curves_for(config, tilt)),
      core_(config, policy, tilt, curves_.get(), double_op_probe),
      pool_(config.spare_pool) {}

void GroupSimulator::run_trial(rng::RandomStream& rs, TrialResult& out,
                               obs::TrialTrace* trace) {
  out.clear();
  detail::run_missions({&core_, 1}, pool_, tree_, rs, {&out, 1}, trace);
}

}  // namespace raidrel::sim
