// The workload loops: a closed loop of one client against one
// PrimerEngine, an open loop of seeded Poisson arrivals against a
// PrimerServer, and a closed loop through a one-worker PrimerServer.  All
// check every request's logits against the plaintext reference after the
// timed region.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/timing.h"
#include "serving/server.h"

namespace perfbench {

using namespace primer;

namespace {

// The serving workload's server: two workers behind a bounded queue, and
// half its arrivals exact repeats from returning clients.
constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kMaxQueue = 8;
constexpr double kRepeatShare = 0.5;

// Set-up is repeated for this long (at least once, at most kSetupCap times)
// and the median reported, so a set-up that grows still fits the run.
constexpr double kSetupBudgetS = 1.0;
constexpr std::size_t kSetupCap = 1001;

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

ModelSpec model_spec(const Options& opt, const BertWeightsI& w) {
  ModelSpec spec;
  spec.weights = w;
  spec.variant = opt.variant;
  spec.profile = opt.profile;
  return spec;
}

ServerConfig server_config(std::size_t workers) {
  ServerConfig cfg;
  cfg.workers = workers;
  cfg.max_queue = kMaxQueue;
  cfg.policy = LoadShedPolicy::kRejectNewest;
  return cfg;
}

// Checks `logits` against the reference for `tokens` (memoized); the
// self-test hook corrupts the first checked result.
class ReferenceCheck {
 public:
  ReferenceCheck(const Options& opt, const BertWeightsI& w) : opt_(opt), w_(w) {}
  bool matches(const std::vector<std::size_t>& tokens,
               std::vector<std::int64_t> logits) {
    auto it = refs_.find(tokens);
    if (it == refs_.end()) {
      it = refs_.emplace(tokens, reference_logits(w_, opt_.variant, tokens)).first;
    }
    if (opt_.inject_mismatch && !injected_ && !logits.empty()) {
      logits[0] ^= 1;
      injected_ = true;
    }
    return logits == it->second;
  }

 private:
  const Options& opt_;
  const BertWeightsI& w_;
  std::map<std::vector<std::size_t>, std::vector<std::int64_t>> refs_;
  bool injected_ = false;
};

void report_tail(const char* what, const Tail& t) {
  std::printf(
      "JSON {\"tail\":\"%s\",\"percentile\":%.2f,\"samples\":%zu,"
      "\"value_s\":%.9f}\n",
      what, t.percentile, t.samples, t.value);
}

// Median wall time of `make()`, the object it returns destroyed untimed.
template <typename Make>
double median_setup_s(Make&& make) {
  std::vector<double> t;
  Stopwatch budget;
  do {
    Stopwatch sw;
    auto obj = make();
    t.push_back(sw.seconds());
  } while (budget.seconds() < kSetupBudgetS && t.size() < kSetupCap);
  return median(t);
}

}  // namespace

double engine_setup_s(const Options& opt, const BertWeightsI& w) {
  return median_setup_s(
      [&] { return std::make_unique<PrimerEngine>(w, opt.variant, opt.profile); });
}

double server_setup_s(const Options& opt, const BertWeightsI& w) {
  return median_setup_s([&] {
    return std::make_unique<PrimerServer>(std::vector<ModelSpec>{model_spec(opt, w)},
                                          server_config(kServeWorkers));
  });
}

ClosedLoop closed_loop(const Options& opt, const BertWeightsI& w,
                       PrimerEngine& engine, double seconds) {
  const BertConfig& cfg = w.config;
  Rng rng(opt.seed);
  for (std::size_t i = 0; i < warmup_requests(opt); ++i) engine.run(random_tokens(cfg, rng));

  ClosedLoop out;
  std::vector<std::vector<std::size_t>> inputs;
  const Usage start = usage_now();
  Stopwatch wall;
  do {
    inputs.push_back(random_tokens(cfg, rng));
    RequestSample s;
    const Usage before = usage_now();
    Stopwatch sw;
    try {
      s.result = engine.run(inputs.back());
      s.ok = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "request %zu failed: %s\n", inputs.size(), e.what());
    }
    s.latency_s = sw.seconds();
    const Usage after = usage_now();
    s.sys_s = after.sys_s - before.sys_s;
    s.minor_faults = after.minor_faults - before.minor_faults;
    std::printf("JSON {\"request\":%zu,\"latency_s\":%.9f,\"sys_s\":%.6f,"
                "\"minor_faults\":%.0f}\n",
                inputs.size(), s.latency_s, s.sys_s, s.minor_faults);
    out.samples.push_back(std::move(s));
  } while (!opt.smoke && wall.seconds() < seconds);
  out.wall_s = wall.seconds();
  out.cpu_s = usage_now().cpu_s() - start.cpu_s();

  // Correctness, outside the timed region.
  ReferenceCheck check(opt, w);
  for (std::size_t i = 0; i < out.samples.size(); ++i) {
    RequestSample& s = out.samples[i];
    if (s.ok && !check.matches(inputs[i], s.result.logits)) {
      s.ok = false;
      ++out.mismatches;
      std::fprintf(stderr, "request %zu: logits differ from the reference\n", i + 1);
    }
  }
  return out;
}

RunReport run_closed_loop(const Options& opt) {
  const BertWeightsI w = nano_model();
  const double setup = engine_setup_s(opt, w);
  PrimerEngine engine(w, opt.variant, opt.profile);
  const ClosedLoop loop = closed_loop(opt, w, engine, opt.seconds);

  std::vector<double> lat, bytes, flights, online_bytes, online_flights;
  std::uint64_t good = 0, failed = 0;
  for (const RequestSample& s : loop.samples) {
    if (!s.ok) {
      ++failed;
      continue;
    }
    const PrimerRunResult& r = s.result;
    const PhaseCost online = r.costs.phase_total("online");
    lat.push_back(s.latency_s);
    bytes.push_back(static_cast<double>(r.total_bytes));
    flights.push_back(static_cast<double>(r.rounds));
    online_bytes.push_back(static_cast<double>(online.bytes_sent));
    online_flights.push_back(static_cast<double>(online.rounds));
    if (s.latency_s <= opt.limit_s) ++good;
  }
  const Tail tail = tail_of(lat);
  report_tail("latency", tail);

  RunReport rep;
  rep.attempted = loop.samples.size();
  rep.failed = failed;
  rep.correct = loop.mismatches == 0;
  const double completed = static_cast<double>(lat.size());
  rep.add("setup_s", setup, "s");
  rep.add("latency_p50_s", median(lat), "s");
  rep.add("latency_tail_s", tail.value, "s");
  rep.add("goodput_rps", static_cast<double>(good) / loop.wall_s, "req/s");
  rep.add("cpu_s_per_req", completed > 0 ? loop.cpu_s / completed : 0, "s");
  rep.add("modeled_latency_s", median(lat) + modeled_network_s(mean(bytes), mean(flights)),
          "s");
  rep.add("wire_mb", mean(bytes) / 1e6, "MB");
  rep.add("online_mb", mean(online_bytes) / 1e6, "MB");
  rep.add("online_flights", mean(online_flights), "count");
  rep.add("success_ratio",
          static_cast<double>(rep.attempted - failed) /
              static_cast<double>(rep.attempted),
          "ratio");
  rep.add("peak_rss_mb", usage_now().peak_rss_mb, "MB");
  return rep;
}

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

namespace {

struct Arrival {
  double due_s = 0;
  std::uint64_t client = 0;
  std::vector<std::size_t> tokens;
};

// The seeded request plan: arrival times, client ids, and the repeat/new
// mix.  Arrivals are Poisson at the workload's fixed rate, N = rate * T of
// them: the N inter-arrival gaps (the first one from the start of the run)
// are a stratified sample of the exponential distribution, one draw from
// each of N equal-probability strata, in seeded random order.  Every seed
// therefore offers the same load over close to the same span, and seeds
// differ in where the bursts fall; with independent draws the queueing,
// the median latency and the run's span varied more between seeds than
// any change worth detecting.  A repeat re-sends a
// returning client's previous tokens (the key-cache resume path); a new
// request draws fresh tokens for an idle client or a first-time one.  A
// client is only planned again once its previous request is past the
// latency limit.
std::vector<Arrival> plan_arrivals(const Options& opt, const BertConfig& cfg) {
  constexpr std::size_t kClientPool = 8;
  Rng rng(opt.seed);
  const std::size_t n =
      opt.smoke ? 1
                : std::max<std::size_t>(
                      1, static_cast<std::size_t>(opt.rate_rps * opt.seconds + 0.5));
  std::vector<double> gap(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + rng.uniform_real()) / static_cast<double>(n);
    gap[i] = -std::log(1.0 - u) / opt.rate_rps;
  }
  for (std::size_t i = n; i > 1; --i) std::swap(gap[i - 1], gap[rng.uniform(i)]);
  std::vector<double> due(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) due[i] = opt.smoke ? 0.0 : (t += gap[i]);

  struct Client {
    double last_due = -std::numeric_limits<double>::infinity();
    std::vector<std::size_t> tokens;
  };
  std::vector<Client> clients;
  std::size_t repeats_left = static_cast<std::size_t>(kRepeatShare * static_cast<double>(n));
  std::vector<Arrival> plan;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t> idle;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      if (clients[c].last_due + opt.limit_s <= due[i]) idle.push_back(c);
    }
    const bool want_repeat =
        repeats_left > 0 && rng.uniform(n - i) < repeats_left;
    Arrival a;
    a.due_s = due[i];
    std::size_t c;
    if (want_repeat && !idle.empty()) {
      c = idle[rng.uniform(idle.size())];
      --repeats_left;
    } else {
      // First-time clients until the pool is big enough that a planned
      // repeat nearly always finds an idle returning client; after that a
      // new request goes to an idle client, which resets its cached keys.
      if (clients.size() < kClientPool || idle.empty()) {
        c = clients.size();
        clients.emplace_back();
      } else {
        c = idle[rng.uniform(idle.size())];
      }
      clients[c].tokens = random_tokens(cfg, rng);
    }
    clients[c].last_due = due[i];
    a.client = c + 1;
    a.tokens = clients[c].tokens;
    plan.push_back(std::move(a));
  }
  return plan;
}

// One resolved session, times on the loop's clock.
struct Resolved {
  double due_s = 0;
  double submit_s = 0;
  std::vector<std::size_t> tokens;
  SessionOutcome outcome;
};

// Correctness and bookkeeping of the resolved sessions, outside the timed
// region, and the usage and cache hits since `start` and `before`.
void settle(const Options& opt, const BertWeightsI& w, const std::vector<Resolved>& done,
            const PrimerServer& server, const ServerStats& before, const Usage& start,
            ServeLoop& out) {
  const Usage end = usage_now();
  out.cpu_s = end.cpu_s() - start.cpu_s();
  out.sys_s = end.sys_s - start.sys_s;
  out.minor_faults = end.minor_faults - start.minor_faults;
  const ServerStats after = server.stats();
  const std::uint64_t admitted = after.accepted - before.accepted;
  out.cache_hit_ratio =
      admitted > 0 ? static_cast<double>(after.sessions.resumable_hits -
                                         before.sessions.resumable_hits) /
                         static_cast<double>(admitted)
                   : 0;

  ReferenceCheck check(opt, w);
  for (const Resolved& d : done) {
    const SessionOutcome& o = d.outcome;
    const double resolved_s = d.submit_s + o.wait_s + o.service_s;
    out.span_s = std::max(out.span_s, resolved_s);
    out.busy_s += o.service_s;
    if (o.status == SessionStatus::kRejected) {
      ++out.rejected;
      continue;
    }
    if (o.status != SessionStatus::kCompleted) {
      std::fprintf(stderr, "client %llu resolved %s: %s\n",
                   static_cast<unsigned long long>(o.client_id),
                   session_status_name(o.status), o.error.c_str());
      ++out.other_failures;
      continue;
    }
    if (!check.matches(d.tokens, o.result.logits)) {
      std::fprintf(stderr, "client %llu: logits differ from the reference\n",
                   static_cast<unsigned long long>(o.client_id));
      ++out.mismatches;
      continue;
    }
    const PrimerRunResult& r = o.result;
    const PhaseCost online = r.costs.phase_total("online");
    const double latency = resolved_s - d.due_s;
    ++out.completed_ok;
    if (latency <= opt.limit_s) ++out.within_limit;
    out.latency_s.push_back(latency);
    out.wait_s.push_back(o.wait_s);
    out.service_s.push_back(o.service_s);
    out.bytes.push_back(static_cast<double>(r.total_bytes));
    out.flights.push_back(static_cast<double>(r.rounds));
    out.online_bytes.push_back(static_cast<double>(online.bytes_sent));
    out.online_flights.push_back(static_cast<double>(online.rounds));
    out.replayed_bytes.push_back(static_cast<double>(r.replayed_bytes));
  }
}

}  // namespace

ServeLoop serve_loop(const Options& opt, const BertWeightsI& w, double seconds) {
  Options o = opt;
  o.seconds = seconds;
  const std::vector<Arrival> plan = plan_arrivals(o, w.config);

  PrimerServer server({model_spec(opt, w)}, server_config(kServeWorkers));
  // Warm-up: one request per worker, concurrently, from clients the plan
  // never uses.
  {
    Rng wrng(opt.seed ^ 0x5eed);
    std::vector<std::shared_ptr<SessionTicket>> warm;
    for (std::size_t i = 0; i < warmup_requests(opt) * kServeWorkers; ++i) {
      InferenceRequest req;
      req.client_id = (1ull << 40) + i;
      req.tokens = random_tokens(w.config, wrng);
      warm.push_back(server.submit(std::move(req)));
    }
    for (const auto& t : warm) t->wait();
  }
  const ServerStats before = server.stats();

  struct Live {
    std::shared_ptr<SessionTicket> ticket;
    double due_s = 0;
    double submit_s = 0;
    const std::vector<std::size_t>* tokens = nullptr;
  };
  ServeLoop out;
  out.workers = kServeWorkers;
  std::vector<Live> live;
  std::map<std::uint64_t, std::shared_ptr<SessionTicket>> last;
  std::uint64_t fresh_client = 1ull << 32;
  const Usage start = usage_now();
  Stopwatch clock;
  for (const Arrival& a : plan) {
    const double wait = a.due_s - clock.seconds();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    InferenceRequest req;
    req.client_id = a.client;
    req.tokens = a.tokens;
    // Never reuse a client whose previous ticket is unresolved: that would
    // be refused as a duplicate in-flight session, measuring the generator
    // rather than the server.
    auto it = last.find(a.client);
    if (it != last.end() && !it->second->done()) {
      req.client_id = fresh_client++;
      ++out.generator_fallbacks;
    }
    const std::uint64_t client = req.client_id;
    const double submit_s = clock.seconds();
    out.max_lag_s = std::max(out.max_lag_s, submit_s - a.due_s);
    ++out.attempted;
    auto ticket = server.try_submit(std::move(req));
    if (ticket == nullptr) {
      ++out.shed;
      out.span_s = std::max(out.span_s, submit_s);
      continue;
    }
    last[client] = ticket;
    live.push_back({ticket, a.due_s, submit_s, &a.tokens});
  }

  std::vector<Resolved> done;
  for (const Live& l : live) done.push_back({l.due_s, l.submit_s, *l.tokens, l.ticket->wait()});
  settle(opt, w, done, server, before, start, out);
  return out;
}

ServeLoop serial_serve_loop(const Options& opt, const BertWeightsI& w, double seconds) {
  PrimerServer server({model_spec(opt, w)}, server_config(1));
  Rng rng(opt.seed ^ 0x5e71a1);
  ServeLoop out;
  out.workers = 1;
  std::vector<Resolved> done;
  const ServerStats before = server.stats();
  const Usage start = usage_now();
  Stopwatch clock;
  double due_s = 0;  // when the previous request resolved
  do {
    InferenceRequest req;
    req.client_id = out.attempted + 1;  // distinct clients: no key cache
    req.tokens = random_tokens(w.config, rng);
    Resolved d;
    d.due_s = due_s;
    d.tokens = req.tokens;
    d.submit_s = clock.seconds();
    out.max_lag_s = std::max(out.max_lag_s, d.submit_s - d.due_s);
    ++out.attempted;
    auto ticket = server.try_submit(std::move(req));
    if (ticket == nullptr) {
      ++out.shed;
    } else {
      d.outcome = ticket->wait();
      done.push_back(std::move(d));
    }
    due_s = clock.seconds();
  } while (!opt.smoke && clock.seconds() < seconds);
  settle(opt, w, done, server, before, start, out);
  return out;
}

RunReport run_serving(const Options& opt) {
  const BertWeightsI w = nano_model();
  const double setup = server_setup_s(opt, w);
  const ServeLoop loop = serve_loop(opt, w, opt.seconds);

  const Tail tail = tail_of(loop.latency_s);
  report_tail("latency", tail);
  std::printf(
      "JSON {\"serve\":{\"attempted\":%llu,\"completed\":%llu,\"shed\":%llu,"
      "\"rejected\":%llu,\"failed\":%llu,\"generator_fallbacks\":%llu,"
      "\"span_s\":%.6f}}\n",
      static_cast<unsigned long long>(loop.attempted),
      static_cast<unsigned long long>(loop.completed_ok),
      static_cast<unsigned long long>(loop.shed),
      static_cast<unsigned long long>(loop.rejected),
      static_cast<unsigned long long>(loop.other_failures),
      static_cast<unsigned long long>(loop.generator_fallbacks), loop.span_s);

  RunReport rep;
  rep.attempted = loop.attempted;
  rep.failed = loop.attempted - loop.completed_ok;
  rep.correct = loop.mismatches == 0;
  const double completed = static_cast<double>(loop.completed_ok);
  rep.add("setup_s", setup, "s");
  rep.add("latency_p50_s", median(loop.latency_s), "s");
  rep.add("latency_tail_s", tail.value, "s");
  rep.add("goodput_rps",
          loop.span_s > 0 ? static_cast<double>(loop.within_limit) / loop.span_s : 0,
          "req/s");
  rep.add("cpu_s_per_req", completed > 0 ? loop.cpu_s / completed : 0, "s");
  rep.add("modeled_latency_s",
          median(loop.latency_s) + modeled_network_s(mean(loop.bytes), mean(loop.flights)),
          "s");
  rep.add("wire_mb", mean(loop.bytes) / 1e6, "MB");
  rep.add("online_mb", mean(loop.online_bytes) / 1e6, "MB");
  rep.add("online_flights", mean(loop.online_flights), "count");
  rep.add("success_ratio",
          static_cast<double>(loop.completed_ok) /
              static_cast<double>(loop.attempted),
          "ratio");
  rep.add("peak_rss_mb", usage_now().peak_rss_mb, "MB");
  return rep;
}

}  // namespace perfbench
