#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double BlockQuantile(const std::vector<double>& v, double q) {
  const std::size_t blocks = std::min<std::size_t>(5, v.size() / 10);
  if (blocks < 2) return Quantile(v, q);
  std::vector<double> tails;
  for (std::size_t b = 0; b < blocks; ++b) {
    tails.push_back(Quantile(
        std::vector<double>(v.begin() + v.size() * b / blocks,
                            v.begin() + v.size() * (b + 1) / blocks),
        q));
  }
  return Median(tails);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

HostTicks ReadHostTicks() {
  HostTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // user nice system idle iowait irq softirq steal
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n < 4) return t;
  for (int i = 0; i < n; ++i) t.total += v[i];
  t.steal = n == 8 ? v[7] : 0;
  return t;
}

void Samples::Add(double value, const HostTicks& from, const HostTicks& to) {
  all_.push_back(value);
  const double total = static_cast<double>(to.total - from.total);
  const double steal = static_cast<double>(to.steal - from.steal);
  if (steal <= 0.01 * total) calm_.push_back(value);
}

std::vector<double> Samples::Kept() const {
  return !calm_.empty() && 4 * calm_.size() >= all_.size() ? calm_ : all_;
}

std::string Samples::Describe() const {
  return std::to_string(calm_.size()) + " of " +
         std::to_string(all_.size()) + " undisturbed";
}

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      int64_t request) {
  if (!enabled_) return 0;
  const double start = Now() - origin_;
  agl::common::MutexLock lock(&mu_);
  Span span;
  span.name = name;
  span.start = start;
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int64_t span) {
  if (!enabled_ || span <= 0) return;
  const double end = Now() - origin_;
  agl::common::MutexLock lock(&mu_);
  Span& s = spans_[static_cast<std::size_t>(span - 1)];
  s.end = end;
  samples_[s.name + "_s"].push_back(s.end - s.start);
}

void Tracer::Sample(const std::string& name, double value) {
  if (!enabled_) return;
  agl::common::MutexLock lock(&mu_);
  samples_[name].push_back(value);
}

std::map<std::string, double> Tracer::Medians() const {
  agl::common::MutexLock lock(&mu_);
  std::map<std::string, double> out;
  for (const auto& [name, values] : samples_) out[name] = Median(values);
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  agl::common::MutexLock lock(&mu_);
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %lld, \"parent\": %lld, \"request\": %lld, "
                 "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.name.c_str(), s.start,
                 s.end, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
