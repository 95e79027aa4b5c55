// The AVX-512 half of the warm-up and window-split checks, compiled with
// -mavx512f when the library carries the AVX-512 backend (see
// warm_up_check.hpp).
#define PML_WARM_UP_CHECK_IMPL
#include "warm_up_check.hpp"

namespace pml::sim::warm_check {

std::string warm_up_mismatch_avx512(const Case& c) {
#if defined(PML_SIM_HAVE_AVX512) && defined(__AVX512F__)
  return warm_up_mismatch<LaneAvx512>(c);
#else
  (void)c;
  return "AVX-512 backend not compiled";
#endif
}

std::string window_split_mismatch_avx512(const Case& c) {
#if defined(PML_SIM_HAVE_AVX512) && defined(__AVX512F__)
  return window_split_mismatch<LaneAvx512>(c);
#else
  (void)c;
  return "AVX-512 backend not compiled";
#endif
}

}  // namespace pml::sim::warm_check
