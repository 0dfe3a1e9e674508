// Runtime CPU feature detection for the SIMD lane layer.
//
// The batched engine (sim/batch_engine.h) and the bulk RNG fill
// (rng/bulk.h) ship one backend per ISA tier, all built into every
// binary; which one runs is decided at startup by CPUID, never by
// compile flags. That keeps a single binary portable across the fleet
// while still using the widest lanes each node has — and it makes every
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
#include <vector>

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

/// One NUMA node as seen by the scheduler: the kernel's node id plus
/// the logical CPUs it owns.
struct NumaNode {
  int id = 0;
  std::vector<int> cpus;
};

/// Machine memory topology for the Monte Carlo scheduler. Always holds
/// at least one node; nodes are ordered by id. `physical` distinguishes
/// a real /sys probe from a synthesized split (non-Linux fallback or the
/// RAIDREL_FORCE_NUMA_NODES override): only a physical multi-node
/// topology may drive thread affinity — a synthetic split shapes work
/// claiming so the partitioned path is testable anywhere, but pinning
/// threads to made-up nodes would only fight the OS scheduler.
struct CpuTopology {
  std::vector<NumaNode> nodes;
  bool physical = false;
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes.size();
  }
};

/// Exclusive upper bound on a CPU id parse_cpu_list accepts: 2^20, far
/// past any machine's logical CPU count, and it bounds one call's output
/// at 2^20 ids however hostile the input.
inline constexpr int kCpuIdLimit = 1 << 20;

/// Parse the kernel's cpulist format ("0-3,8,10-11") into an ascending,
/// duplicate-free CPU id list. Pure (no filesystem); a segment that is not
/// exactly `id` or `lo-hi` with unsigned decimal ids (blanks around it
/// aside), that descends, or that names an id at or above kCpuIdLimit is
/// skipped rather than fatal — a defensive probe must survive an exotic
/// sysfs, and a partially parsed node still schedules correctly.
std::vector<int> parse_cpu_list(std::string_view text);

/// The machine's NUMA layout from /sys/devices/system/node (Linux).
/// Falls back to one synthetic node spanning hardware_concurrency()
/// CPUs when the probe finds nothing. Probed once and cached.
const CpuTopology& detected_topology();

/// Largest synthetic node count RAIDREL_FORCE_NUMA_NODES may ask for.
/// Far past any real machine's node count, and it bounds what one
/// active_topology() call builds however large the value.
inline constexpr std::size_t kForcedNodeLimit = 1024;

/// Parse a RAIDREL_FORCE_NUMA_NODES value: exactly an unsigned decimal
/// integer in [1, kForcedNodeLimit], with no sign and no blank. Pure;
/// throws ModelError on anything else.
std::size_t parse_forced_node_count(std::string_view text);

/// The topology scheduling should use: detected_topology(), unless
/// RAIDREL_FORCE_NUMA_NODES is set (and not empty), in which case the
/// detected CPUs are re-split into that many synthetic nodes (always
/// `physical == false`, so affinity stays off). The override exists so
/// the node-partitioned claiming path can be exercised and tested on a
/// single-node box. Reads the environment on every call; throws
/// ModelError on a value parse_forced_node_count rejects.
CpuTopology active_topology();

}  // namespace raidrel::util
