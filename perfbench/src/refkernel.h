#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Host-speed reference: a fixed sort plus a hash-map counting pass over
/// 2^15 pseudo-random 64-bit keys. It calls nothing in the library, so
/// its time tracks only how fast this host is running right now.
/// Returns the kernel's wall time in seconds.
double run_reference_kernel();

/// The kernel time that defines "nominal host speed": measured times are
/// scaled by kNominalKernelSeconds / measured_kernel_seconds, so corrected
/// figures stay in seconds (the median kernel time on the 4-CPU host the
/// README's reference figures come from).
inline constexpr double kNominalKernelSeconds = 4.0e-3;

/// Scales a raw interval by the host speed observed around it: the
/// kernel timed just before and just after the interval.
[[nodiscard]] double corrected_seconds(double raw_seconds, double kernel_before,
                                       double kernel_after);

/// Median of `v` (0 when empty). Takes a copy: callers keep their order.
[[nodiscard]] double median(std::vector<double> v);

/// Peak resident set of this process image so far, in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
