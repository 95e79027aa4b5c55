#pragma once
// Runtime selection of the SWAR lane-word backend.
//
// The three batch simulators are templated on a LaneWord trait
// (sim/lanes.hpp); the wide instantiations live in translation units
// compiled with -mavx2 / -mavx512f (src/core/src/backends/).  This header
// is the runtime face of that split: a Backend enum threaded through
// core::EvaluateOptions / VerifyOptions / ActivityOptions /
// FaultCampaignOptions (and the benches' --backend flag), plus the
// resolution logic that turns kAuto into the widest backend that is both
// compiled in (PML_SIM_HAVE_AVX2 / PML_SIM_HAVE_AVX512, set by CMake) and
// supported by the CPU we are running on (CPUID) — or, for a power
// replay whose streams fit 64 lanes, into u64.
//
// Every backend is proven bit-exact lane-for-lane against the u64
// reference (tests/test_sim_backend.cpp), so the choice can never change
// results — only throughput.  That is why the sweep-service cache key
// deliberately excludes it, like the threading knobs.

#include <cstdint>
#include <string>
#include <vector>

namespace pml::sim {

enum class Backend : std::uint8_t {
  kAuto = 0,  ///< widest compiled+supported backend (PML_SIM_BACKEND
              ///< environment variable overrides, e.g. =u64 in CI)
  kU64 = 1,   ///< 64-lane scalar SWAR — always available, the reference
  kAvx2 = 2,  ///< 256-lane __m256i
  kAvx512 = 3,  ///< 512-lane __m512i
};

/// Canonical lower-case name ("auto", "u64", "avx2", "avx512").
[[nodiscard]] const char* backend_name(Backend b);

/// Inverse of backend_name; throws std::invalid_argument on an unknown
/// name (the message lists the valid ones).
[[nodiscard]] Backend parse_backend(const std::string& name);

/// True when the backend's kernels were compiled into this binary
/// (kU64 always; kAvx2/kAvx512 when CMake found the -m flags and
/// PML_SIMD_BACKENDS was ON).  kAuto is not a concrete backend: false.
[[nodiscard]] bool backend_compiled(Backend b);

/// True when the running CPU can execute the backend's instructions.
[[nodiscard]] bool backend_cpu_supported(Backend b);

/// Compiled in AND supported by this CPU.
[[nodiscard]] bool backend_available(Backend b);

/// Every available concrete backend, narrowest (kU64) first.
[[nodiscard]] std::vector<Backend> available_backends();

/// Lanes per batch word of a concrete backend (64 / 256 / 512); throws
/// std::invalid_argument for kAuto.
[[nodiscard]] std::size_t backend_lanes(Backend b);

/// Resolve a requested backend to a concrete one:
///   - kAuto: honor the PML_SIM_BACKEND environment variable when set
///     ("u64"/"avx2"/"avx512" must be available or this throws — a
///     misconfigured CI leg must fail loudly, not silently fall back;
///     "auto" and empty mean no override), otherwise pick the widest
///     available backend.
///   - concrete: returned as-is when available, otherwise throws
///     std::runtime_error naming what is missing (not compiled vs not
///     supported by the CPU).
[[nodiscard]] Backend resolve_backend(Backend requested);

/// Resolve a backend for a replay of `streams` independent lane-streams
/// (the power replay's occupancy rule).  A concrete request and the
/// PML_SIM_BACKEND override resolve exactly as in resolve_backend;
/// otherwise kAuto picks u64 when its 64 lanes hold every stream and the
/// widest available backend above that — a 24-stream replay fills 24 of
/// 64 u64 lanes instead of 24 of 512.  Never allocates.
[[nodiscard]] Backend resolve_backend_for(Backend requested,
                                          std::size_t streams);

}  // namespace pml::sim
