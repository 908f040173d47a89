// Shared helpers of the benchmark binary: a seeded generator whose stream
// is fixed by this file alone (inputs must not move when the program under
// test changes), percentiles, clocks, and the result record every workload
// fills in.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast, and identical on every platform and library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  int Below(int n) {
    return static_cast<int>((Next() >> 11) % static_cast<uint64_t>(n));
  }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (int i = static_cast<int>(v->size()) - 1; i > 0; --i) {
      std::swap((*v)[i], (*v)[Below(i + 1)]);
    }
  }

 private:
  uint64_t state_;
};

/// Mixes a seed with a stream label so sub-streams stay independent.
inline uint64_t SubSeed(uint64_t seed, uint64_t label) {
  Rng r(seed * 0x100000001B3ull ^ (label + 0x632BE59BD9B4E019ull));
  return r.Next();
}

/// FNV-1a, used for the printed input digest.
inline uint64_t Fnv1a(const std::string& s, uint64_t h = 0xCBF29CE484222325ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile of `v` (sorted in place); 0 for an empty set.
inline double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  if (rank < 1) rank = 1;
  if (rank > v->size()) rank = v->size();
  return (*v)[rank - 1];
}

inline double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The undisturbed value of a figure measured once per part of a run:
/// the mean of the parts ranked from 1/8 to 3/8 of the way from the best
/// end (the highest values when `higher` is set, else the lowest; at least
/// one part). Other tenants of a shared host only ever slow parts down, so
/// the band ignores up to 5/8 slowed parts; it also ignores the best 1/8,
/// so a rare fast mode (a lucky lock interleaving) does not set the figure.
/// A mean, not one part's value, so whole-microsecond inputs still give a
/// fine-grained figure.
inline double QuartileBand(std::vector<double> v, bool higher) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (higher) std::reverse(v.begin(), v.end());
  const size_t lo = v.size() / 8;
  const size_t hi = std::max(lo + 1, 3 * v.size() / 8);
  return Mean(std::vector<double>(v.begin() + lo, v.begin() + hi));
}

/// True when percentile q of n samples has at least ten samples beyond it,
/// the rule every reported tail percentile follows.
inline bool TailSupported(size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports: the verdict/outcome checks and metrics.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed before the JSON result line.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs and short phases, for the self-tests.
  bool smoke = false;
  /// Flips one expected verdict, so the self-tests can see a check fail.
  bool inject_wrong_verdict = false;
  std::string tools_dir;  ///< Holds wydb_analyze and wydb_serve.
  std::string work_dir;   ///< Scratch space inside the checkout.
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
