// The AVX2 half of the warm-up and window-split checks, compiled with
// -mavx2 when the library carries the AVX2 backend (see
// warm_up_check.hpp).
#define PML_WARM_UP_CHECK_IMPL
#include "warm_up_check.hpp"

namespace pml::sim::warm_check {

std::string warm_up_mismatch_avx2(const Case& c) {
#if defined(PML_SIM_HAVE_AVX2) && defined(__AVX2__)
  return warm_up_mismatch<LaneAvx2>(c);
#else
  (void)c;
  return "AVX2 backend not compiled";
#endif
}

std::string window_split_mismatch_avx2(const Case& c) {
#if defined(PML_SIM_HAVE_AVX2) && defined(__AVX2__)
  return window_split_mismatch<LaneAvx2>(c);
#else
  (void)c;
  return "AVX2 backend not compiled";
#endif
}

}  // namespace pml::sim::warm_check
