#include "serve/metrics.h"

#include <cmath>

namespace rdfrel::serve {

// Sub-bucketed base-2 histogram: 4 linear sub-buckets per power of two.
// Bucket 0..3 cover 0..3us linearly; thereafter each octave splits in 4.

size_t LatencyHistogram::BucketFor(uint64_t micros) {
  if (micros < 4) return static_cast<size_t>(micros);
  // Position of the highest set bit (>= 2 here).
  int msb = 63 - __builtin_clzll(micros);
  auto sub = static_cast<size_t>((micros >> (msb - 2)) & 0x3u);
  size_t bucket = static_cast<size_t>(msb - 1) * 4 + sub;
  return bucket < kBuckets ? bucket : kBuckets - 1;
}

uint64_t LatencyHistogram::BucketLower(size_t bucket) {
  if (bucket < 4) return bucket;
  size_t msb = bucket / 4 + 1;
  uint64_t base = 1ULL << msb;
  return base + (base >> 2) * (bucket & 0x3u);
}

void LatencyHistogram::Record(uint64_t micros) {
  buckets_[BucketFor(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
}

double LatencyHistogram::Quantile(double q) const {
  uint64_t total = count_.load(std::memory_order_relaxed);
  if (total == 0) return 0;
  double rank = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    uint64_t n = buckets_[b].load(std::memory_order_relaxed);
    if (n == 0) continue;
    if (static_cast<double>(seen + n) >= rank) {
      // Interpolate between the bucket's bounds by position within it.
      double lo = static_cast<double>(BucketLower(b));
      double hi = b + 1 < kBuckets ? static_cast<double>(BucketLower(b + 1))
                                   : lo * 1.19;
      double frac = (rank - static_cast<double>(seen)) /
                    static_cast<double>(n);
      return lo + (hi - lo) * frac;
    }
    seen += n;
  }
  return static_cast<double>(BucketLower(kBuckets - 1));
}

double LatencyHistogram::Mean() const {
  uint64_t total = count_.load(std::memory_order_relaxed);
  if (total == 0) return 0;
  return static_cast<double>(sum_micros_.load(std::memory_order_relaxed)) /
         static_cast<double>(total);
}

std::string EndpointMetrics::ToJson() const {
  // One `,"k":v` member, rounded to centi-us so the JSON stays compact.
  auto field = [](const char* k, double v) {
    return std::string(",\"") + k + "\":" +
           std::to_string(std::round(v * 100.0) / 100.0);
  };
  std::string out = "{";
  out += "\"requests\":" +
         std::to_string(requests.load(std::memory_order_relaxed));
  out += ",\"errors\":" +
         std::to_string(errors.load(std::memory_order_relaxed));
  out += ",\"bytes_out\":" +
         std::to_string(bytes_out.load(std::memory_order_relaxed));
  out += field("p50_us", latency.Quantile(0.50));
  out += field("p99_us", latency.Quantile(0.99));
  out += field("p999_us", latency.Quantile(0.999));
  out += field("mean_us", latency.Mean());
  out += "}";
  return out;
}

}  // namespace rdfrel::serve
