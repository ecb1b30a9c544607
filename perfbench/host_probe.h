// HostProbe: a fixed reference kernel that measures how fast the host runs
// right now, so the benchmark can report times corrected for the host's
// memory contention (see perfbench/README.md, "Host correction").
//
// On a shared host the simulator's speed drifts by up to 35% in phases of
// 5 to 40 seconds while the CPU clock stays put: the neighbours' load on
// the caches and memory slows every allocation-heavy loop alike. The probe
// is such a loop -- it builds and reads back 3,000 small vectors in a
// private 1 MB buffer -- and runs after every unit of a run, once per
// 10 ms of the unit, so it samples the host in proportion to time. Before
// each repetition it flushes its buffer from every cache level, untimed,
// so every repetition refills the buffer from memory whatever ran before
// it. Its code is the benchmark's own, never the library's, so a change to
// the library cannot move it; it uses no malloc, so the library's heap
// cannot either.

#ifndef PCPDA_PERFBENCH_HOST_PROBE_H_
#define PCPDA_PERFBENCH_HOST_PROBE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace pcpda::perfbench {

class HostProbe {
 public:
  /// Time of one repetition on the host of the recorded figures (4 vCPUs
  /// of a shared Intel Xeon) in its usual state. Corrected times are in
  /// that host's seconds.
  static constexpr double kNominalRepSeconds = 210e-6;
  /// The units do not slow down as much as the probe, and not always:
  /// over 90 runs of the three workloads the slope of a run's log-time on
  /// the probe's log-slowdown was 0.65 pooled, and from -0.1 to 1.6 in
  /// sets of ten. Correcting by the square root of the probe's slowdown
  /// gave the smallest worst ten-run spread over those sets.
  static constexpr double kElasticity = 0.5;
  /// One repetition per this much measured time, and at least one.
  static constexpr double kSampleEverySeconds = 0.010;

  HostProbe() : buffer_(kBufferBytes) { Rep(); }  // Faults the buffer in.

  /// Times one repetition per kSampleEverySeconds of a measured stretch
  /// of `busy_s` seconds, right after it, into the current window.
  void SampleAfter(double busy_s) {
    const auto start = Clock::now();
    const auto count = std::max<std::int64_t>(
        1, std::llround(busy_s / kSampleEverySeconds));
    for (std::int64_t i = 0; i < count; ++i) {
      Flush();
      const auto rep_start = Clock::now();
      Rep();
      rep_s_ += Seconds(Clock::now() - rep_start);
    }
    reps_ += count;
    probe_s_ += Seconds(Clock::now() - start);
  }

  /// Seconds spent probing in the current window, evictions included.
  double probe_s() const { return probe_s_; }

  /// How much slower than nominal the units ran over the current window
  /// by the probe's account (1 = nominal, 1.3 = 30% slower): the probe's
  /// own slowdown to the power kElasticity. Divide a time measured in the
  /// window by it. Starts a new window.
  double TakeSlowdown() {
    const double slowdown =
        reps_ > 0 ? std::pow(rep_s_ / static_cast<double>(reps_) /
                                 kNominalRepSeconds,
                             kElasticity)
                  : 1.0;
    probe_s_ = rep_s_ = 0;
    reps_ = 0;
    return slowdown;
  }

 private:
  using Clock = std::chrono::steady_clock;

  static double Seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }

  static constexpr std::size_t kBufferBytes = std::size_t{1} << 20;
  static constexpr std::size_t kCacheLine = 64;
  static constexpr int kVectors = 3000;

  void Flush() {
#if defined(__x86_64__) || defined(__i386__)
    for (std::size_t at = 0; at < buffer_.size(); at += kCacheLine) {
      _mm_clflush(buffer_.data() + at);
    }
    _mm_mfence();
#endif
  }

  void Rep() {
    std::pmr::monotonic_buffer_resource arena(
        buffer_.data(), buffer_.size(), std::pmr::null_memory_resource());
    std::pmr::vector<std::pmr::vector<int>> vectors(&arena);
    vectors.reserve(kVectors);
    for (int k = 0; k < kVectors; ++k) vectors.emplace_back(16 + k % 64, k);
    std::uint64_t sum = 0;
    for (const auto& v : vectors) {
      sum += static_cast<std::uint64_t>(v[v.size() / 2]);
    }
    sink_ = sink_ + sum;
  }

  std::vector<std::byte> buffer_;
  double probe_s_ = 0;
  double rep_s_ = 0;
  std::int64_t reps_ = 0;
  /// Keeps the compiler from dropping the repetitions.
  volatile std::uint64_t sink_ = 0;
};

}  // namespace pcpda::perfbench

#endif  // PCPDA_PERFBENCH_HOST_PROBE_H_
