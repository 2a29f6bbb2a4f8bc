#include "report.h"

#include <sys/resource.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

namespace {

bool name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The processor brand string from CPUID (no file reads needed).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    while (!s.empty() && s.back() == ' ') s.pop_back();
    std::size_t first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  for (char c : name) {
    if (!name_char(c)) return false;
  }
  return true;
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    if (!name_char(c) && c != '/' && c != '%') return false;
  }
  return true;
}

void Report::set(const std::string& name, double value, const std::string& unit) {
  if (!valid_metric_name(name)) throw std::invalid_argument("bad metric name: " + name);
  if (!valid_unit(unit)) throw std::invalid_argument("bad unit for " + name + ": " + unit);
  if (!std::isfinite(value)) throw std::invalid_argument("non-finite value for " + name);
  metrics_[name] = Metric{value, unit};
}

void Report::print(std::FILE* out) const {
  for (const auto& [name, m] : metrics_) {
    std::fprintf(out, "metric %-36s %s %s\n", name.c_str(), format_number(m.value).c_str(),
                 m.unit.c_str());
  }
}

std::string Report::json(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + format_number(m.value) + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  s += "}}";
  return s;
}

void print_stamp(std::FILE* out, const Stamp& stamp) {
  std::fprintf(out, "stamp nproc %u\n", std::thread::hardware_concurrency());
  std::fprintf(out, "stamp cpu %s\n", cpu_model().c_str());
  std::fprintf(out, "stamp compiler %s %s\n",
#if defined(__clang__)
               "clang",
#else
               "gcc",
#endif
               __VERSION__);
  std::fprintf(out, "stamp build_type %s\n", PERFBENCH_BUILD_TYPE);
  std::fprintf(out, "stamp commit %s\n", stamp.commit.c_str());
  std::fprintf(out, "stamp workload %s\n", stamp.workload.c_str());
  std::fprintf(out, "stamp seed %llu\n", static_cast<unsigned long long>(stamp.seed));
  std::fprintf(out, "stamp seconds %g\n", stamp.seconds);
  std::fprintf(out, "stamp trace %d\n", stamp.trace ? 1 : 0);
  for (const auto& [what, seed] : stamp.derived_seeds) {
    std::fprintf(out, "stamp seed.%s %llu\n", what.c_str(),
                 static_cast<unsigned long long>(seed));
  }
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
