// Hot-path kernel selection: the paper's scalar loops, or the measured-best
// plan.
//
// The paper's microarchitectural analysis (Fig. 8, Fig. 19, Fig. 21) shows
// the lazy algorithms bound by partition/build/probe memory behaviour, and
// §5.3.2 / Table 5 blame NPJ's losses on its one shared, latched table.
// Four kernel variants close that gap phase by phase: a software
// write-combining scatter (partition/swwc.h), a CAS-based lock-free build
// for the NPJ shared table (hash/lockfree_table.h), an AVX2 vertical probe
// over the open-addressing table (hash/simd_probe.h), and a
// prefetch-batched probe for chained tables (hash/prefetch.h). This header
// owns the knob that picks between two plans:
//
//   kAuto   — each phase's measured winner: SWWC scatter, the lock-free NPJ
//             build, the AVX2 probe wherever a LinearProbeTable is probed
//             (the batched probe when the host lacks AVX2 or
//             $IAWJ_SIMD_PROBE=0), and the batched probe on chained
//             tables. Defers to $IAWJ_KERNELS when set.
//   kScalar — the paper-faithful one-tuple-at-a-time loops everywhere and
//             NPJ's latched shared table.
//
// SimTracer builds always run scalar so the Fig. 8 cache simulation stays
// faithful: the simulator has no prefetcher and models per-access LRU, so
// staging-buffer/vector traffic would distort the traces it reproduces.
//
// Both plans produce identical output (same match multiset, same checksum);
// the differential test suite enforces that across every algorithm x both
// modes x both schedulers x both hash-table kinds.
#ifndef IAWJ_COMMON_KERNELS_H_
#define IAWJ_COMMON_KERNELS_H_

#include <string>
#include <string_view>

namespace iawj {

enum class KernelMode { kAuto, kScalar };

inline constexpr KernelMode kAllKernelModes[] = {KernelMode::kAuto,
                                                 KernelMode::kScalar};

std::string_view KernelModeName(KernelMode mode);

// "auto|scalar": every mode name, for usage and error text.
std::string KernelModeChoices();

// Parses a KernelModeName; returns false (and leaves *mode untouched) on
// anything else.
bool ParseKernelMode(std::string_view text, KernelMode* mode);

// $IAWJ_KERNELS, or kAuto when unset/unparseable (a bad value warns once).
KernelMode KernelModeFromEnv();

// Resolves the spec-level knob: an explicit mode wins, kAuto defers to the
// environment (mirroring how deadline_ms / the supervision knobs resolve).
KernelMode ResolveKernelMode(KernelMode spec_mode);

// The hot-path sites one algorithm has under a given spec
// (JoinAlgorithm::kernel_sites). A plan variant only runs where its site
// exists.
struct KernelSites {
  bool radix_scatter = false;  // PRJ's radix partitioning
  bool shared_build = false;   // NPJ's shared hash table
  bool chained_probe = false;  // probes of bucket-chain or lock-free chains
  bool linear_probe = false;   // probes of a LinearProbeTable
};

// The resolved per-phase kernel decisions for one run. Each flag names the
// variant a hot path takes when it has that site. Run records serialize the
// plan as the v8 `kernels` block via the *Variant helpers below.
struct KernelPlan {
  KernelMode mode = KernelMode::kScalar;  // scalar, or auto when resolved so
  bool swwc_scatter = false;    // radix scatter via write-combining buffers
  bool lockfree_build = false;  // CAS build on the NPJ shared table
  bool batched_probe = false;   // group-prefetched probe batches
  bool simd_probe = false;      // AVX2 vertical probe (linear-probe tables);
                                // already false when the host lacks AVX2

  // This plan narrowed to `sites`: every flag stays set only where the site
  // exists, so the plan names exactly the variants that run. A linear-probe
  // site without the SIMD probe falls back to the batched one.
  KernelPlan For(const KernelSites& sites) const;
};

// Resolves spec mode + environment + tracer + host capability into the
// plan. Tracer-enabled (SimTracer) runs always get the all-scalar plan.
KernelPlan ResolveKernelPlan(KernelMode spec_mode, bool tracer_enabled);

// Per-phase variant names for the run-record v8 `kernels` block.
std::string_view KernelScatterVariant(const KernelPlan& plan);  // scalar|swwc
std::string_view KernelBuildVariant(const KernelPlan& plan);  // scalar|lockfree
std::string_view KernelProbeVariant(
    const KernelPlan& plan);  // scalar|batched|simd

}  // namespace iawj

#endif  // IAWJ_COMMON_KERNELS_H_
