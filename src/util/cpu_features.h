// Runtime CPU feature detection for the SIMD lane layer.
//
// The batched engine (sim/batch_engine.h) and the bulk RNG fill
// (rng/bulk.h) ship one backend per ISA tier, all built into every
// binary; which one runs is decided at startup by CPUID, never by
// compile flags. That keeps a single binary portable across the fleet
// while still using the widest lanes each machine has — and it makes every
// backend testable on one machine through the RAIDREL_FORCE_ISA
// override (CI runs the equivalence suite once per tier).
//
// Two tiers: kGeneric (portable scalar) is the fallback on every
// machine and the reference backend kAvx512 is tested against. There is
// no SSE2 or AVX2 tier: neither measured faster than kGeneric
// (docs/MODEL.md §14). AVX-512 here means F+DQ+VL — the subset the lane
// kernels use (512-bit doubles plus the u64->double conversions) — with
// OS zmm state support confirmed via XGETBV, so a kernel that honors the
// reported tier can never hit an illegal instruction.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace raidrel::util {

/// SIMD instruction-set tiers, ordered: a backend compiled for tier T
/// runs on any machine whose detected tier is >= T.
enum class SimdIsa : std::uint8_t {
  kGeneric = 0,  ///< portable scalar fallback
  kAvx512 = 1,   ///< 512-bit lanes (F+DQ+VL)
};

/// The machine's best usable tier, from CPUID + XGETBV (OS state
/// support included). Detected once and cached — hardware does not
/// change mid-process.
SimdIsa detected_isa() noexcept;

/// Canonical lower-case name ("generic", "avx512") —
/// the spelling used by RAIDREL_FORCE_ISA, the run manifest, and the
/// BENCH_perf.json tags.
const char* isa_name(SimdIsa isa) noexcept;

/// Parse an isa_name spelling; nullopt for anything else.
std::optional<SimdIsa> parse_isa(std::string_view name) noexcept;

/// Resolve the tier a run should use: `forced` (the RAIDREL_FORCE_ISA
/// value, may be empty/absent) clamped to `detected`. Forcing *down* is
/// the supported use (exercise a narrower backend on a wider machine);
/// forcing above the hardware would execute illegal instructions, so
/// the request clamps to `detected` instead. Throws ModelError on an
/// unparseable token — a typo silently running the wrong backend would
/// invalidate exactly the CI matrix the override exists for.
SimdIsa resolve_isa(SimdIsa detected, std::string_view forced);

/// The tier in effect right now: detected_isa() clamped by the
/// RAIDREL_FORCE_ISA environment variable. Reads the environment on
/// every call (cheap: one getenv past the cached detection) so a test
/// can setenv/unsetenv around engine construction.
SimdIsa active_isa();

}  // namespace raidrel::util
