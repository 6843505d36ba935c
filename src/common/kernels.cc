#include "src/common/kernels.h"

#include <cstdlib>

#include "src/common/logging.h"
#include "src/hash/simd_probe.h"

namespace iawj {

std::string_view KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kAuto:
      return "auto";
    case KernelMode::kScalar:
      return "scalar";
  }
  return "?";
}

std::string KernelModeChoices() {
  std::string choices;
  for (KernelMode mode : kAllKernelModes) {
    if (!choices.empty()) choices += '|';
    choices += KernelModeName(mode);
  }
  return choices;
}

bool ParseKernelMode(std::string_view text, KernelMode* mode) {
  for (KernelMode candidate : kAllKernelModes) {
    if (text == KernelModeName(candidate)) {
      *mode = candidate;
      return true;
    }
  }
  return false;
}

KernelMode KernelModeFromEnv() {
  const char* env = std::getenv("IAWJ_KERNELS");
  if (env == nullptr || *env == '\0') return KernelMode::kAuto;
  KernelMode mode = KernelMode::kAuto;
  if (!ParseKernelMode(env, &mode)) {
    static bool warned = false;
    if (!warned) {
      warned = true;
      IAWJ_LOG(Warning) << "ignoring unrecognized IAWJ_KERNELS=" << env
                        << " (want " << KernelModeChoices() << ")";
    }
  }
  return mode;
}

KernelMode ResolveKernelMode(KernelMode spec_mode) {
  return spec_mode == KernelMode::kAuto ? KernelModeFromEnv() : spec_mode;
}

KernelPlan KernelPlan::For(const KernelSites& sites) const {
  KernelPlan plan;
  plan.mode = mode;
  plan.swwc_scatter = swwc_scatter && sites.radix_scatter;
  plan.lockfree_build = lockfree_build && sites.shared_build;
  plan.simd_probe = simd_probe && sites.linear_probe;
  plan.batched_probe = batched_probe && !plan.simd_probe &&
                       (sites.chained_probe || sites.linear_probe);
  return plan;
}

KernelPlan ResolveKernelPlan(KernelMode spec_mode, bool tracer_enabled) {
  KernelPlan plan;
  if (tracer_enabled) return plan;
  plan.mode = ResolveKernelMode(spec_mode);
  if (plan.mode == KernelMode::kScalar) return plan;
  plan.swwc_scatter = true;
  plan.lockfree_build = true;
  plan.batched_probe = true;
  // Runtime dispatch: without AVX2 (or with $IAWJ_SIMD_PROBE=0) linear-probe
  // tables take the batched probe instead — byte-identical output.
  plan.simd_probe = kernels::SimdProbeSupported();
  return plan;
}

std::string_view KernelScatterVariant(const KernelPlan& plan) {
  return plan.swwc_scatter ? "swwc" : "scalar";
}

std::string_view KernelBuildVariant(const KernelPlan& plan) {
  return plan.lockfree_build ? "lockfree" : "scalar";
}

std::string_view KernelProbeVariant(const KernelPlan& plan) {
  if (plan.simd_probe) return "simd";
  return plan.batched_probe ? "batched" : "scalar";
}

}  // namespace iawj
