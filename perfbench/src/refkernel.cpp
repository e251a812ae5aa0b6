#include "src/refkernel.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr std::size_t kKeys = std::size_t{1} << 15;

const std::vector<std::uint64_t>& kernel_input() {
    static const std::vector<std::uint64_t> keys = [] {
        std::vector<std::uint64_t> v(kKeys);
        std::uint64_t x = 0x9E3779B97F4A7C15ull;
        for (auto& k : v) {  // splitmix64
            x += 0x9E3779B97F4A7C15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            k = z ^ (z >> 31);
        }
        return v;
    }();
    return keys;
}

volatile std::uint64_t g_sink = 0;  // keeps the kernel's result alive

}  // namespace

double run_reference_kernel() {
    const auto& input = kernel_input();
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> sorted(input);
    std::sort(sorted.begin(), sorted.end());
    std::unordered_map<std::uint64_t, std::uint32_t> counts;
    counts.reserve(kKeys / 4);
    for (const auto k : sorted) ++counts[k >> 50];
    std::uint64_t acc = sorted[kKeys / 2];
    for (const auto k : input) acc += counts.find(k >> 50)->second;
    g_sink = acc;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

double corrected_seconds(double raw_seconds, double kernel_before,
                         double kernel_after) {
    const double kernel = 0.5 * (kernel_before + kernel_after);
    if (!(kernel > 0.0)) throw std::invalid_argument("kernel time must be > 0");
    return raw_seconds * (kNominalKernelSeconds / kernel);
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
    // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
    // exec, so it would report the launching interpreter's footprint.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    throw std::runtime_error("VmHWM missing from /proc/self/status");
}

}  // namespace perfbench
