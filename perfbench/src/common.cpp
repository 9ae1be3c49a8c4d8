#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench.h"
#include "net/channel.h"

namespace perfbench {

using namespace primer;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) {
    t.value = v.back();
    t.percentile = 100;
  } else {
    t.value = v[n - 11];
    t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  }
  return t;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  Usage u;
  u.user_s = secs(ru.ru_utime);
  u.sys_s = secs(ru.ru_stime);
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
  return u;
}

BertWeightsI nano_model() {
  Rng rng(2025);
  return quantize(BertWeightsD::random(bert_nano(), rng));
}

std::vector<std::int64_t> reference_logits(const BertWeightsI& w,
                                           PrimerVariant v,
                                           const std::vector<std::size_t>& tokens) {
  if (v == PrimerVariant::kFPC) return fixed_forward_chgs(w, tokens);
  return FixedBert(w).forward(tokens);
}

std::vector<std::size_t> random_tokens(const BertConfig& cfg, Rng& rng) {
  std::vector<std::size_t> t(cfg.tokens);
  for (auto& x : t) x = static_cast<std::size_t>(rng.uniform(cfg.vocab));
  return t;
}

double modeled_network_s(double bytes, double flights) {
  const NetworkModel m;
  return flights * m.one_way_delay_s + bytes / m.bandwidth_bytes_per_s;
}

// ---- Trace ----------------------------------------------------------------

namespace {
double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

Trace::Trace() : origin_(steady_seconds()) {}

double Trace::now() const { return steady_seconds() - origin_; }

int Trace::open(const std::string& name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_s = now();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Trace::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Trace::count(const std::string& name, double value,
                  std::uint64_t request) {
  counters_.push_back({name, value, request});
}

double Trace::sum(const std::string& name, std::uint64_t request) const {
  double s = 0;
  for (const auto& sp : spans_) {
    if (sp.request == request && sp.name == name) s += sp.duration();
  }
  return s;
}

double Trace::leaf_sum(std::uint64_t request) const {
  std::vector<bool> has_child(spans_.size(), false);
  for (const auto& sp : spans_) {
    if (sp.parent >= 0) has_child[static_cast<std::size_t>(sp.parent)] = true;
  }
  double s = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!has_child[i] && spans_[i].request == request) s += spans_[i].duration();
  }
  return s;
}

void Trace::write_jsonl() const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::printf(
        "JSON {\"span\":\"%s\",\"id\":%zu,\"parent\":%d,\"request\":%llu,"
        "\"start_s\":%.9f,\"end_s\":%.9f}\n",
        s.name.c_str(), i, s.parent,
        static_cast<unsigned long long>(s.request), s.start_s, s.end_s);
  }
  for (const auto& c : counters_) {
    std::printf("JSON {\"counter\":\"%s\",\"request\":%llu,\"value\":%.17g}\n",
                c.name.c_str(), static_cast<unsigned long long>(c.request),
                c.value);
  }
}

}  // namespace perfbench
