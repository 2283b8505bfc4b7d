#include "obs/metrics.h"

#include <sstream>
#include <utility>

namespace lhg::obs {

std::int64_t MetricSample::quantile_floor(double q) const {
  if (count == 0) return 0;
  const double target = q * static_cast<double>(count);
  std::int64_t cumulative = 0;
  for (std::int32_t b = 0; b < kHistogramBuckets; ++b) {
    cumulative += buckets[static_cast<std::size_t>(b)];
    if (static_cast<double>(cumulative) >= target) {
      return histogram_bucket_floor(b);
    }
  }
  return histogram_bucket_floor(kHistogramBuckets - 1);
}

const MetricSample* Snapshot::find(const std::string& name) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void Snapshot::merge_from(const Snapshot& other) {
  if (samples.empty()) {
    samples = other.samples;
    return;
  }
  LHG_CHECK(samples.size() == other.samples.size(),
            "obs: merging snapshots with different schemas ({} vs {} metrics)",
            samples.size(), other.samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    MetricSample& into = samples[i];
    const MetricSample& from = other.samples[i];
    LHG_CHECK(into.name == from.name && into.kind == from.kind,
              "obs: merging snapshots with mismatched metric '{}' vs '{}'",
              into.name, from.name);
    into.value += from.value;
    into.count += from.count;
    into.sum += from.sum;
    for (std::size_t b = 0; b < into.buckets.size(); ++b) {
      into.buckets[b] += from.buckets[b];
    }
  }
}

std::string Snapshot::to_json() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const MetricSample& s : samples) {
    out << (first ? " " : ", ");
    first = false;
    out << '"' << s.name << "\": ";
    if (s.kind == MetricKind::kHistogram) {
      out << "{ \"count\": " << s.count << ", \"sum\": " << s.sum
          << ", \"buckets\": [";
      // Trailing zero buckets are elided; bucket b's range is implied
      // by its index ([2^(b-1), 2^b), bucket 0 = values <= 0).
      std::size_t last = s.buckets.size();
      while (last > 0 && s.buckets[last - 1] == 0) --last;
      for (std::size_t b = 0; b < last; ++b) {
        out << (b == 0 ? "" : ", ") << s.buckets[b];
      }
      out << "] }";
    } else {
      out << s.value;
    }
  }
  out << (first ? "}" : " }");
  return out.str();
}

Registry::Registry(std::int32_t shards) {
  LHG_CHECK(shards >= 1, "obs: registry needs >= 1 shard, got {}", shards);
  shards_.resize(static_cast<std::size_t>(shards));
}

std::int32_t Registry::reserve(std::int32_t slots) {
  const auto base = static_cast<std::int32_t>(shards_[0].size());
  for (auto& slab : shards_) {
    slab.resize(slab.size() + static_cast<std::size_t>(slots), 0);
  }
  return base;
}

CounterId Registry::counter(std::string name) {
  const core::MutexLock hold(register_mu_);
  infos_.push_back({std::move(name), MetricKind::kCounter, 0});
  infos_.back().slot = reserve(1);
  return {infos_.back().slot};
}

HistogramId Registry::histogram(std::string name) {
  const core::MutexLock hold(register_mu_);
  infos_.push_back({std::move(name), MetricKind::kHistogram, 0});
  infos_.back().slot = reserve(kHistogramBuckets + 2);
  return {infos_.back().slot};
}

Snapshot Registry::snapshot() const {
  const core::MutexLock hold(register_mu_);
  Snapshot snap;
  snap.samples.reserve(infos_.size());
  for (const Info& info : infos_) {
    MetricSample sample;
    sample.name = info.name;
    sample.kind = info.kind;
    const auto slot = static_cast<std::size_t>(info.slot);
    // Shards merge in index order; everything is an int64 sum, so the
    // result is independent of how work was spread across shards.
    for (const auto& slab : shards_) {
      if (info.kind == MetricKind::kHistogram) {
        for (std::size_t b = 0; b < static_cast<std::size_t>(kHistogramBuckets);
             ++b) {
          sample.buckets[b] += slab[slot + b];
        }
        sample.count += slab[slot + static_cast<std::size_t>(kHistogramBuckets)];
        sample.sum +=
            slab[slot + static_cast<std::size_t>(kHistogramBuckets) + 1];
      } else {
        sample.value += slab[slot];
      }
    }
    snap.samples.push_back(std::move(sample));
  }
  return snap;
}

}  // namespace lhg::obs
