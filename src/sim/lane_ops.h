// Width-generic SIMD lane primitives for the batched lockstep engine,
// dispatched at runtime by ISA (docs/MODEL.md §14).
//
// One LaneOps table per ISA tier (generic scalar, AVX-512) is linked
// into every binary; util::active_isa() picks the widest one the
// hardware — or the RAIDREL_FORCE_ISA override — allows. The table
// bundles everything the engine dispatches per lane width:
//
//  * round_dispatch — the round loop's next-event scan, classify and
//    settle sweep. Comparisons only (the minimum of a set of doubles is
//    the same value under any association; the equality match keeps the
//    first index), so every backend is bit-identical to the scalar `<`
//    loop.
//  * fill_uniform_open — the bulk RNG fill (rng/bulk.h), bit-identical
//    to per-stream scalar draws at every width.
//  * neg_log_n / weibull_quantile_n — the MathTier::kFast transform
//    kernels: polynomial log/exp evaluated in a fixed operation order
//    with no FMA contraction, so every backend (scalar included)
//    produces the same bits as every other — deterministic across
//    widths and ISAs, but *different* from libm, hence a separate tier.
//
// Math tiers: kExact (default) keeps every transform on libm — results
// bit-identical to the scalar engine, the contract every equivalence
// test pins. kFast swaps the hot Weibull-quantile transforms (the
// -log(u) draw and the pow in fresh refills)
// onto the polynomial kernels: ~1e-15 relative accuracy per sample
// (tests/math_tier_test.cpp pins 1e-12), statistically equivalent
// results, not bit-comparable to kExact. Residual draws and hazard
// caps stay on libm in both tiers — they are rare, and their expm1 /
// log1p precision properties are load-bearing (slot_kernel.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "rng/bulk.h"
#include "util/cpu_features.h"

namespace raidrel::sim {

/// Transform-arithmetic tier for the batched engine's bulk refills.
/// kExact is the default everywhere; kFast must be asked for
/// (RunOptions::math_tier) and is recorded in the run manifest and
/// sweep cache keys because its results are not bit-comparable.
enum class MathTier : std::uint8_t {
  kExact = 0,  ///< libm transforms; bit-identical to the scalar engine
  kFast = 1,   ///< polynomial SIMD transforms; statistically equivalent
};

/// Canonical name ("exact" | "fast"), as recorded in manifests and
/// BENCH_perf.json.
const char* math_tier_name(MathTier tier) noexcept;

/// Parse a math_tier_name spelling; nullopt for anything else.
std::optional<MathTier> parse_math_tier(std::string_view name) noexcept;

/// One classified round event emitted by LaneOps::round_dispatch: lane
/// element, slot (kLaneNoSlot for spare arrivals), dispatch time.
struct LaneEvent {
  std::uint32_t lane;
  std::uint32_t slot;
  double t;
};

/// Slot value of a LaneEvent that is not bound to a slot (spare
/// arrivals service a lane-level queue, not one cell).
inline constexpr std::uint32_t kLaneNoSlot = 0xffffffffu;

/// One ISA tier's lane primitives. Obtained from lane_ops() /
/// lane_ops_for(); the tables are immutable statics, so the pointer can
/// be kept for the life of the process.
struct LaneOps {
  util::SimdIsa isa;

  /// Fused round sweep: the batched engine's whole argmin + classify +
  /// settle pass in one dispatched call. For each live lane lanes[k]
  /// (in order) it finds the first minimum of the lane's slot timers
  /// (the minimum value and the lowest slot holding it — exactly what a
  /// scalar `<` loop computes; timers are never NaN), then either
  ///  * settles the lane — next event at or past `mission` — by
  ///    compacting it out of lanes[] (stable order, in place),
  ///  * emits a spare arrival into spare_events when spare_next is
  ///    non-null and spare_next[lanes[k]] <= slot min and < inf (ties
  ///    go to the spare, exactly the scalar loop's <=; an arrival at or
  ///    past `mission` settles the lane instead), or
  ///  * appends {lane, slot, t} to buckets[kinds[lane * nslots + slot]]
  ///    — the engine's cached dispatch-priority byte.
  /// counts[0..3] receive the per-kind bucket sizes, counts[4] the
  /// spare-arrival count; returns the surviving lane count. Purely
  /// comparisons, so which lanes are scanned changes with compaction
  /// but never any emitted value — bit-identical to the scalar sweep.
  std::size_t (*round_dispatch)(const double* tnext,
                                const std::uint8_t* kinds, std::size_t nslots,
                                std::uint32_t* lanes, std::size_t nlanes,
                                double mission, const double* spare_next,
                                LaneEvent* const buckets[4],
                                LaneEvent* spare_events,
                                std::size_t counts[5]);

  /// Bulk uniform fill for this tier (rng/bulk.h; bit-identical to
  /// scalar draws at every width).
  rng::FillUniformOpenFn fill_uniform_open;

  /// MathTier::kFast only — out[i] = -log(u[i]) by the polynomial
  /// kernel, u[i] in (0, 1). In-place allowed (out == u).
  void (*neg_log_n)(const double u[], double out[], std::size_t n);

  /// MathTier::kFast only — out[i] = a + b * exp(c * log(e[i])), the
  /// Weibull quantile transform (c = 1/beta), e[i] > 0. In-place
  /// allowed (out == e).
  void (*weibull_quantile_n)(const double e[], double out[], std::size_t n,
                             double a, double b, double c);
};

/// The active tier's table: detected ISA clamped by RAIDREL_FORCE_ISA.
/// Reads the environment per call; resolve once per simulator, not per
/// refill.
const LaneOps& lane_ops();

/// A specific tier's table, clamped to the detected hardware (a wider
/// request degrades to the widest runnable backend, mirroring
/// util::resolve_isa).
const LaneOps& lane_ops_for(util::SimdIsa isa) noexcept;

}  // namespace raidrel::sim
