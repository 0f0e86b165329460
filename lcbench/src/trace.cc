#include <sys/resource.h>

#include "bench.h"
#include "util/str.h"

namespace lcbench {

uint32_t Tracer::Begin(const char* name, uint64_t request, uint32_t parent) {
  if (!enabled_ || spans_.size() >= max_spans_) return 0;
  spans_.push_back({name, request, parent, Clock::now(), {}, 0.0});
  return static_cast<uint32_t>(spans_.size());  // Ids start at 1.
}

void Tracer::End(uint32_t id) {
  if (id == 0) return;
  Span& span = spans_[id - 1];
  span.end = Clock::now();
  if (span.parent != 0) {
    spans_[span.parent - 1].child_us += MicrosBetween(span.start, span.end);
  }
}

void Tracer::Absorb(const Tracer& other) {
  const uint32_t offset = static_cast<uint32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent != 0) span.parent += offset;
    spans_.push_back(span);
  }
}

std::map<std::string, lc::RunningStat> Tracer::SelfTimes() const {
  std::map<std::string, lc::RunningStat> self;
  for (const Span& span : spans_) {
    self[span.name].Add(MicrosBetween(span.start, span.end) - span.child_us);
  }
  return self;
}

void Tracer::Dump(std::string* out) const {
  if (spans_.empty()) return;
  const Clock::time_point origin = spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    *out += lc::Format("%zu\t%s\t%llu\t%u\t%.3f\t%.3f\n", i + 1, span.name,
                       static_cast<unsigned long long>(span.request),
                       span.parent, MicrosBetween(origin, span.start),
                       MicrosBetween(origin, span.end));
  }
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

double ProcessCpuMicros() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto micros = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return micros(usage.ru_utime) + micros(usage.ru_stime);
}

}  // namespace lcbench
