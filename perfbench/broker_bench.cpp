// Broker benchmark: one run of one traffic mix against a real daemon.
//
//   broker_bench --workload <mix> --seed <n> --seconds <s> --trace <0|1>
//
// Normally started through run.py, which builds this binary first. A run
// forks the backend stub and the daemon member(s), times their set-up three
// times, warms up, then measures. --trace 0 measures one window with
// tracing off and prints the end-to-end metrics; --trace 1 measures half a
// window untraced and half traced and prints the per-layer metrics. Every
// reply and the daemon's conservation identities are checked; the last line
// of stdout is one JSON object {correct, attempted, failed, metrics}.
#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "core/arena.h"
#include "core/striped_cache.h"
#include "generator.h"
#include "member.h"
#include "net/frame.h"
#include "net/http_client.h"
#include "stub.h"
#include "util/json.h"

using namespace perfbench;
using sbroker::util::JsonValue;

namespace {

constexpr int kSetupRepeats = 5;
constexpr int kGeneratorCpu = 0;
constexpr int kStubCpu = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds >= 1.0 && a.seconds <= 60.0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

// ---- /statusz ----------------------------------------------------------

struct Status {
  uint64_t issued = 0, forwarded = 0, dropped = 0, cache_hits = 0, completed = 0;
  uint64_t errors = 0, deadline_misses = 0, lifo_sheds = 0;
  uint64_t class_issued[3] = {0, 0, 0}, class_dropped[3] = {0, 0, 0};
  // stage summaries, seconds, with their sample counts
  double total_p50 = 0, total_p99 = 0, batch_p99 = 0, queue_p50 = 0, queue_p99 = 0,
         rtt_p50 = 0;
  uint64_t total_n = 0;
  uint64_t calls = 0, connections_opened = 0, flushes = 0, requests_written = 0,
           rejections = 0, retries = 0, timeouts = 0, peak_in_flight = 0;
  uint64_t late_completions = 0;
  uint64_t coalesced = 0, swr_hits = 0, refreshes = 0, enters = 0;
  std::vector<uint64_t> picks;  ///< per replica, summed over shards
  double threshold_mean = 0;    ///< mean of the shards' live thresholds
  bool all_fresh = false;
  uint64_t forwards_sent = 0, forward_fails = 0, fetches_served = 0, pushes_sent = 0;
};

std::optional<JsonValue> fetch_statusz(uint16_t admin_port) {
  sbroker::http::Request req;
  req.method = "GET";
  req.target = "/statusz";
  req.headers.set("Host", "localhost");
  auto resp = sbroker::net::http_fetch(admin_port, req);
  if (!resp || resp->status != 200) return std::nullopt;
  return JsonValue::parse(resp->body);
}

std::optional<Status> scrape(uint16_t admin_port) {
  auto doc = fetch_statusz(admin_port);
  if (!doc || !doc->is_object()) return std::nullopt;
  const JsonValue& d = *doc;
  Status s;
  auto u = [](const JsonValue& v) { return static_cast<uint64_t>(v.as_int()); };
  size_t level = 0;
  for (const JsonValue& c : d["classes"].items()) {
    s.issued += u(c["issued"]);
    s.forwarded += u(c["forwarded"]);
    s.dropped += u(c["dropped"]);
    s.cache_hits += u(c["cache_hits"]);
    s.completed += u(c["completed"]);
    s.errors += u(c["errors"]);
    s.deadline_misses += u(c["deadline_misses"]);
    s.lifo_sheds += u(c["lifo_sheds"]);
    if (level < 3) {
      s.class_issued[level] = u(c["issued"]);
      s.class_dropped[level] = u(c["dropped"]);
    }
    ++level;
  }
  const JsonValue& st = d["stages"];
  s.total_p50 = st["total"]["p50"].as_double();
  s.total_p99 = st["total"]["p99"].as_double();
  s.total_n = u(st["total"]["count"]);
  s.batch_p99 = st["batch_wait"]["p99"].as_double();
  s.queue_p50 = st["queue_wait"]["p50"].as_double();
  s.queue_p99 = st["queue_wait"]["p99"].as_double();
  s.rtt_p50 = st["channel_rtt"]["p50"].as_double();
  const JsonValue& t = d["transport"];
  s.calls = u(t["calls"]);
  s.connections_opened = u(t["connections_opened"]);
  s.flushes = u(t["flushes"]);
  s.requests_written = u(t["requests_written"]);
  s.rejections = u(t["rejections"]);
  s.retries = u(t["retries"]);
  s.timeouts = u(t["timeouts"]);
  s.peak_in_flight = u(t["peak_in_flight"]);
  s.late_completions = u(d["lifecycle"]["late_completions"]);
  s.coalesced = u(d["flight"]["coalesced_waiters"]);
  s.swr_hits = u(d["flight"]["swr_hits"]);
  s.refreshes = u(d["flight"]["refreshes"]);
  s.enters = u(d["overload"]["enters"]);
  double thr = 0;
  size_t shards = 0;
  for (const JsonValue& sh : d["per_shard"].items()) {
    thr += sh["admission_threshold"].as_double();
    ++shards;
    for (const JsonValue& rep : sh["replicas"].items()) {
      size_t idx = static_cast<size_t>(rep["replica"].as_int());
      if (idx >= s.picks.size()) s.picks.resize(idx + 1, 0);
      s.picks[idx] += u(rep["picks"]);
    }
  }
  s.threshold_mean = shards ? thr / static_cast<double>(shards) : 0.0;
  const JsonValue& f = d["federation"];
  if (f.is_object()) {
    s.forwards_sent = u(f["forwards_sent"]);
    s.forward_fails = u(f["forward_fails"]);
    s.fetches_served = u(f["fetches_served"]);
    s.pushes_sent = u(f["pushes_sent"]);
    s.all_fresh = true;
    for (const JsonValue& p : f["peers"].items()) {
      if (!p["self"].as_bool(false) && !p["fresh"].as_bool(false)) s.all_fresh = false;
    }
  }
  return s;
}

/// Every peer of every member fresh in /statusz (the tier's set-up barrier).
bool wait_for_mesh(const std::vector<std::unique_ptr<Member>>& members, int timeout_ms) {
  int64_t deadline = now_ns() + static_cast<int64_t>(timeout_ms) * 1000000;
  while (now_ns() < deadline) {
    bool all = true;
    for (const auto& m : members) {
      auto s = scrape(m->admin_port());
      if (!s || !s->all_fresh) all = false;
    }
    if (all) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// ---- conservation -------------------------------------------------------

struct Conservation {
  std::vector<Status> status;
  uint64_t stub_calls = 0;  ///< stub requests since the measured members started
  std::vector<std::string> broken;
};

/// Checks the identities over quiescent counters. Counters are read while
/// background work (stale refreshes) may still be on the wire, so the read
/// is repeated for up to two seconds until the identities hold.
Conservation check_conservation(const std::vector<std::unique_ptr<Member>>& members,
                                Stub& stub, uint64_t stub_base,
                                const std::vector<uint64_t>& frames_sent,
                                uint64_t probes, uint64_t busy_replies,
                                const std::vector<Status>& before) {
  Conservation c;
  int64_t deadline = now_ns() + 2000000000;
  for (;;) {
    c.status.clear();
    c.broken.clear();
    for (const auto& m : members) {
      auto s = scrape(m->admin_port());
      if (!s) {
        c.broken.push_back("member /statusz unreadable");
        break;
      }
      c.status.push_back(*s);
    }
    c.stub_calls = stub.stats().total_calls() - stub_base;
    if (c.broken.empty()) {
      uint64_t calls = 0, written = 0, retries = 0, issued = 0, fetches = 0,
               forwards = 0, fails = 0;
      for (size_t i = 0; i < c.status.size(); ++i) {
        const Status& s = c.status[i];
        std::string m = "member " + std::to_string(i) + ": ";
        if (s.issued != s.forwarded + s.dropped + s.cache_hits + s.errors) {
          c.broken.push_back(m + "issued " + std::to_string(s.issued) +
                             " != forwarded + dropped + cached + errors " +
                             std::to_string(s.forwarded + s.dropped + s.cache_hits +
                                            s.errors));
        }
        if (s.completed != s.issued) {
          c.broken.push_back(m + "completed " + std::to_string(s.completed) +
                             " != issued " + std::to_string(s.issued));
        }
        // Over the measured window: every pick carries one backend call,
        // except a pick whose connection-pool lease is refused, which sheds
        // its batch with busy replies instead (a stalled backend can fill the
        // pool; a cold cache's first burst in warm-up too).
        uint64_t picks = 0, calls_in_window = s.calls - before[i].calls;
        for (uint64_t p : s.picks) picks += p;
        for (uint64_t p : before[i].picks) picks -= p;
        if (picks < calls_in_window || picks > calls_in_window + busy_replies) {
          c.broken.push_back(m + "replica picks " + std::to_string(picks) +
                             " outside backend calls " + std::to_string(calls_in_window) +
                             " .. calls + busy replies " +
                             std::to_string(calls_in_window + busy_replies) +
                             " in the measured window");
        }
        calls += s.calls;
        written += s.requests_written;
        retries += s.retries;
        issued += s.issued;
        fetches += s.fetches_served;
        forwards += s.forwards_sent;
        fails += s.forward_fails;
      }
      // Every request the channels wrote reaches the stub. A cancelled
      // exchange kills its connection and the channel re-issues the other
      // exchanges queued on it, so a request already written can reach the
      // stub twice: stub-counted = backend calls exactly when nothing was
      // re-issued, and at most calls + retries otherwise.
      if (c.stub_calls != written) {
        c.broken.push_back("stub-counted requests " + std::to_string(c.stub_calls) +
                           " != requests written by the channels " +
                           std::to_string(written));
      }
      if (c.stub_calls < calls || c.stub_calls > calls + retries) {
        c.broken.push_back("stub-counted requests " + std::to_string(c.stub_calls) +
                           " outside daemon backend calls " + std::to_string(calls) +
                           " .. calls + channel retries " +
                           std::to_string(calls + retries));
      }
      uint64_t sent = probes;
      for (uint64_t f : frames_sent) sent += f;
      // Owner-side peer fetches are served outside the issued counters.
      if (issued != sent) {
        c.broken.push_back("daemon issued " + std::to_string(issued) +
                           " != client frames sent " + std::to_string(sent));
      }
      if (forwards != fetches + fails) {
        c.broken.push_back("forwards sent " + std::to_string(forwards) +
                           " != owner fetches served " + std::to_string(fetches) +
                           " + forward fails " + std::to_string(fails));
      }
    }
    if (c.broken.empty() || now_ns() > deadline) return c;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

// ---- statistics ---------------------------------------------------------

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Generator thread CPU over the phase's wall time, less the polling it does
/// while waiting for a due send (that is waiting, not work).
double busy_share(const PhaseResult& r) {
  return ratio(static_cast<double>(r.cpu_ns - r.spin_ns), static_cast<double>(r.wall_ns));
}

/// p99 of the latency, as the median over the window's slices of each
/// slice's p99. A slice is the shortest power-of-two multiple of kSliceNs
/// (1/64 s, up to 2 s) that holds 1000 replies on average, so its p99 has
/// ten samples beyond it. The reference host's vCPUs are preempted for a few
/// milliseconds a few times a second, which is close to 1% of the time: a
/// whole-window p99 then reads how many preemptions the run happened to
/// catch. Short slices put each preemption in one slice, and the median
/// slice is one without. Replies of the drain count in the last slice.
struct SliceP99 {
  double p99_us = 0;
  size_t slices = 0;
  double slice_s = 0;
};

SliceP99 slice_p99(const PhaseResult& r) {
  SliceP99 out;
  const double per_second = static_cast<double>(r.latency_us.size()) / r.seconds;
  size_t per_slice = 1;  // in units of kSliceNs
  while (per_slice < 128 &&
         per_second * static_cast<double>(per_slice * kSliceNs) / 1e9 < 1000.0) {
    per_slice *= 2;
  }
  const size_t window_marks =
      static_cast<size_t>(r.seconds * 1e9 / static_cast<double>(kSliceNs));
  std::vector<double> p99s;
  for (size_t b = 0; b < window_marks; b += per_slice) {
    if (b >= r.slice_marks.size()) break;
    size_t begin = r.slice_marks[b];
    bool last = b + 2 * per_slice > window_marks;
    size_t end = (last || b + per_slice >= r.slice_marks.size())
                     ? r.latency_us.size()
                     : r.slice_marks[b + per_slice];
    if (end > begin) {
      p99s.push_back(percentile(
          std::vector<float>(r.latency_us.begin() + static_cast<long>(begin),
                             r.latency_us.begin() + static_cast<long>(end)),
          99));
    }
    if (last) break;
  }
  out.p99_us = percentile(p99s, 50);
  out.slices = p99s.size();
  out.slice_s = static_cast<double>(per_slice * kSliceNs) / 1e9;
  return out;
}

// ---- per-layer replays --------------------------------------------------

/// Times `op` over `ops` items per pass, repeating passes for at least
/// 30 ms; nanoseconds per item.
template <typename Op>
double time_per_op(size_t ops, Op&& op) {
  int64_t start = now_ns();
  size_t passes = 0;
  do {
    op();
    ++passes;
  } while (now_ns() - start < 30000000 || passes < 3);
  return static_cast<double>(now_ns() - start) / static_cast<double>(ops * passes);
}

struct Replays {
  double decode_ns = 0, encode_ns = 0, probe_ns = 0, put_ns = 0;
};

/// Replays the traced phase's own request stream (connection 0's keys and
/// classes) through the frame codec and a cache of the mix's size.
Replays run_replays(const Mix& mix, uint64_t seed, uint64_t phase) {
  namespace frame = sbroker::net::frame;
  constexpr size_t kOps = 8192;
  KeyStream stream(mix, key_stream_seed(seed, phase, 0));
  std::vector<uint64_t> keys(kOps);
  std::vector<std::string> queries(kOps), bodies(kOps);
  std::string requests;
  for (size_t i = 0; i < kOps; ++i) {
    keys[i] = stream.next_key();
    queries[i] = query_for(keys[i], mix.body_bytes);
    append_body(keys[i], mix.body_bytes, bodies[i]);
    frame::Request req;
    req.request_id = i + 1;
    req.qos_level = stream.next_qos();
    req.deadline_ms = mix.deadline_ms;
    req.query = queries[i];
    frame::encode_request(req, requests);
  }
  Replays r;
  volatile uint64_t sink = 0;
  r.decode_ns = time_per_op(kOps, [&] {
    std::string_view rest(requests);
    frame::Request req;
    size_t used = 0;
    uint64_t acc = 0;
    while (frame::parse_request(rest, req, &used) == frame::ParseResult::kFrame) {
      acc += req.request_id + req.query.size();
      rest.remove_prefix(used);
    }
    sink = sink + acc;
  });
  std::string out;
  r.encode_ns = time_per_op(kOps, [&] {
    for (size_t i = 0; i < kOps; ++i) {
      if ((i & 63) == 0) out.clear();  // one reactor cycle's batch
      frame::encode_reply(i + 1, sbroker::http::Fidelity::kFull, 0, bodies[i], out);
    }
    sink = sink + out.size();
  });
  sbroker::core::StripedResultCache probe_cache(mix.cache_capacity, 3600.0, 8);
  for (size_t i = 0; i < kOps; ++i) probe_cache.put(queries[i], bodies[i], 0.0);
  sbroker::core::Arena arena;
  r.probe_ns = time_per_op(kOps, [&] {
    uint64_t acc = 0;
    for (size_t i = 0; i < kOps; ++i) {
      arena.reset();
      acc += probe_cache.lookup_into(queries[i], 1.0, arena).value.size();
    }
    sink = sink + acc;
  });
  // Put-with-eviction: a cache of the mix's size, filled to capacity first,
  // then fed the stream; keys not yet resident each evict one entry.
  sbroker::core::StripedResultCache put_cache(mix.cache_capacity, 3600.0, 8);
  for (size_t i = 0; i < mix.cache_capacity; ++i) {
    put_cache.put(query_for(1000000000ull + i, mix.body_bytes), bodies[i % kOps], 0.0);
  }
  r.put_ns = time_per_op(kOps, [&] {
    for (size_t i = 0; i < kOps; ++i) put_cache.put(queries[i], bodies[i], 1.0);
  });
  (void)sink;
  return r;
}

// ---- spans --------------------------------------------------------------

/// For each child span, the index of the earliest parent span with the same
/// key that encloses it (-1 when none): the single-flight leader's request.
std::vector<long> join_spans(const std::vector<Span>& parents,
                             const std::vector<Span>& children) {
  std::unordered_map<uint64_t, std::vector<size_t>> by_key;
  for (size_t i = 0; i < parents.size(); ++i) by_key[parents[i].key].push_back(i);
  for (auto& [key, idx] : by_key) {
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      return parents[a].start < parents[b].start;
    });
  }
  std::vector<long> out(children.size(), -1);
  for (size_t c = 0; c < children.size(); ++c) {
    auto it = by_key.find(children[c].key);
    if (it == by_key.end()) continue;
    for (size_t p : it->second) {
      if (parents[p].start > children[c].start) break;
      if (parents[p].end >= children[c].end) {
        out[c] = static_cast<long>(p);
        break;
      }
    }
  }
  return out;
}

/// Self time of each parent span: its duration minus the part of it its
/// joined children cover, in microseconds.
std::vector<float> self_times_us(const std::vector<Span>& parents,
                                 const std::vector<Span>& children,
                                 const std::vector<long>& parent_of) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(parents.size());
  for (size_t c = 0; c < children.size(); ++c) {
    if (parent_of[c] >= 0) {
      kids[static_cast<size_t>(parent_of[c])].push_back(
          {children[c].start, children[c].end});
    }
  }
  std::vector<float> out;
  out.reserve(parents.size());
  for (size_t p = 0; p < parents.size(); ++p) {
    auto& iv = kids[p];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_s = 0, cur_e = -1;
    for (auto [s, e] : iv) {
      s = std::max(s, parents[p].start);
      e = std::min(e, parents[p].end);
      if (e <= s) continue;
      if (s > cur_e) {
        if (cur_e > cur_s) covered += cur_e - cur_s;
        cur_s = s;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_s) covered += cur_e - cur_s;
    out.push_back(static_cast<float>(
        static_cast<double>(parents[p].end - parents[p].start - covered) / 1e3));
  }
  return out;
}

std::vector<float> durations_us(const std::vector<Span>& spans) {
  std::vector<float> out;
  out.reserve(spans.size());
  for (const Span& s : spans) out.push_back(static_cast<float>((s.end - s.start) / 1e3));
  return out;
}

// ---- output -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count or base, for the human-readable table
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string short_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted, 1));
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string count_note(size_t n) { return "(n=" + std::to_string(n) + ")"; }

/// Threshold sampler for the traced window: the mean of every shard's live
/// admission threshold, read from /statusz every 100 ms.
class ThresholdSampler {
 public:
  explicit ThresholdSampler(std::vector<uint16_t> admin_ports)
      : ports_(std::move(admin_ports)), thread_([this] { loop(); }) {}
  ~ThresholdSampler() { stop(); }
  ThresholdSampler(const ThresholdSampler&) = delete;
  ThresholdSampler& operator=(const ThresholdSampler&) = delete;

  double stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return samples_ ? sum_ / static_cast<double>(samples_) : 0.0;
  }

 private:
  void loop() {
    while (!stop_.load()) {
      double sum = 0;
      size_t n = 0;
      for (uint16_t p : ports_) {
        if (auto s = scrape(p)) {
          sum += s->threshold_mean;
          ++n;
        }
      }
      if (n) {
        sum_ += sum / static_cast<double>(n);
        ++samples_;
      }
      for (int i = 0; i < 10 && !stop_.load(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  std::vector<uint16_t> ports_;
  std::atomic<bool> stop_{false};
  double sum_ = 0;
  size_t samples_ = 0;
  std::thread thread_;
};

int run(const Args& args) {
  const Mix* mix = find_mix(args.workload);
  if (mix == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (one of %s)\n", args.workload.c_str(),
                 mix_names().c_str());
    return 2;
  }
  pin_to({kGeneratorCpu});
  prctl(PR_SET_TIMERSLACK, 1);

  StubConfig sc;
  sc.replicas = mix->replicas;
  sc.svc_us = mix->svc_us;
  sc.slow_mult = mix->slow_mult;
  sc.cpus = {kStubCpu};
  Stub stub(sc);

  // Set-up, timed kSetupRepeats times: fork of the member(s) until every
  // member answered a probe frame (and, for the tier, every peer is fresh).
  std::vector<std::unique_ptr<Member>> members;
  std::vector<uint16_t> ring_ports;
  std::vector<double> setup_s;
  uint64_t stub_base = 0;
  const size_t member_count = mix->tier ? 2 : 1;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    members.clear();  // SIGKILLs the previous repetition's members
    stub_base = stub.stats().total_calls();
    int64_t t0 = now_ns();
    ring_ports.clear();
    if (mix->tier) {
      for (size_t i = 0; i < member_count; ++i) ring_ports.push_back(reserve_port());
    }
    for (size_t i = 0; i < member_count; ++i) {
      MemberConfig mc;
      mc.mix = mix;
      mc.seed = args.seed;
      mc.shards = mix->tier ? 1 : 2;
      mc.backend_ports = stub.ports();
      mc.node = static_cast<uint32_t>(i);
      mc.peer_ports = ring_ports;
      mc.cpus = mix->tier ? std::vector<int>{static_cast<int>(1 + i)} : std::vector<int>{1, 2};
      members.push_back(std::make_unique<Member>(mc));
    }
    for (size_t i = 0; i < member_count; ++i) {
      if (!probe_member(members[i]->port(), kProbeKeyBase + rep * 8 + i, mix->body_bytes,
                        10000)) {
        std::fprintf(stderr, "member %zu did not answer its probe\n", i);
        return 1;
      }
    }
    if (mix->tier && !wait_for_mesh(members, 10000)) {
      std::fprintf(stderr, "federation mesh did not form\n");
      return 1;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const uint64_t probes = member_count;

  std::vector<Target> targets;
  for (size_t c = 0; c < 4; ++c) {
    size_t m = c % member_count;
    targets.push_back(Target{members[m]->port(), static_cast<uint32_t>(m)});
  }
  Generator gen(*mix, args.seed, targets, ring_ports);

  auto daemon_cpu = [&] {
    int64_t t = 0;
    for (const auto& m : members) t += proc_cpu_ns(m->pid());
    return t;
  };

  // Warm-up: fills the cache from the mix's own key stream.
  if (mix->open_loop) {
    gen.run_phase(static_cast<double>(mix->warmup) / 1000.0, 0, false, false, 0);
  } else {
    gen.run_phase(60.0, mix->warmup, false, false, 0);
  }

  std::vector<Status> before;
  for (const auto& m : members) {
    auto s = scrape(m->admin_port());
    if (!s) {
      std::fprintf(stderr, "member /statusz unreadable\n");
      return 1;
    }
    before.push_back(*s);
  }
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  const uint64_t stub0 = stub.stats().total_calls();
  const int64_t cpu0 = daemon_cpu();
  PhaseResult w = gen.run_phase(window, 0, true, false, 1);
  const int64_t cpu_ns = daemon_cpu() - cpu0;
  const uint64_t stub_window = stub.stats().total_calls() - stub0;

  PhaseResult traced;
  sbroker::net::WireStats wire0;
  Stub::Stats stub_t0, stub_t1;
  double threshold_mean = 0;
  Replays replays;
  constexpr uint64_t kTracedPhase = 2;
  if (args.trace) {
    for (auto& m : members) {
      sbroker::net::WireStats ws = m->trace_on();
      wire0.merge(ws);
    }
    stub.trace_on();
    stub_t0 = stub.stats();
    std::vector<uint16_t> admin_ports;
    for (const auto& m : members) admin_ports.push_back(m->admin_port());
    {
      ThresholdSampler sampler(admin_ports);
      traced = gen.run_phase(window, 0, true, true, kTracedPhase);
      threshold_mean = sampler.stop();
    }
    stub_t1 = stub.stats();
    replays = run_replays(*mix, args.seed, kTracedPhase);
  }

  double rss = 0;
  for (const auto& m : members) rss += proc_hwm_mib(m->pid());
  Conservation cons =
      check_conservation(members, stub, stub_base, gen.frames_sent(), probes,
                         w.busy + traced.busy, before);

  std::vector<Member::Report> reports;
  for (auto& m : members) reports.push_back(m->finish());
  std::vector<Span> stub_spans = stub.finish();

  // Validity: a run where the generator thread was saturated while the
  // daemon left more than a quarter of its two shard threads idle measured
  // the generator, not the daemon.
  double gen_cpu_share = busy_share(w);
  // Two shard threads either way: 2 shards, or 2 members x 1 shard.
  const size_t daemon_threads = 2;
  double daemon_util = ratio(static_cast<double>(cpu_ns),
                             static_cast<double>(w.wall_ns) * daemon_threads);
  bool generator_bound = gen_cpu_share >= 0.9 && daemon_util < 0.75;

  uint64_t failed = w.violations + traced.violations + cons.broken.size();
  for (const std::string& n : w.notes) std::fprintf(stderr, "violation: %s\n", n.c_str());
  for (const std::string& n : traced.notes) std::fprintf(stderr, "violation: %s\n", n.c_str());
  for (const std::string& n : cons.broken) std::fprintf(stderr, "conservation: %s\n", n.c_str());
  if (generator_bound) {
    std::fprintf(stderr,
                 "INVALID: generator thread busy %.0f%% while the daemon used %.0f%% "
                 "of its threads; this run measured the generator\n",
                 100 * gen_cpu_share, 100 * daemon_util);
  }
  // Every reply of a measured phase has exactly one fidelity.
  for (const PhaseResult* p : {&w, &traced}) {
    uint64_t sum = p->full + p->cached + p->busy + p->error + p->degraded;
    if (sum != p->attempted) {
      std::fprintf(stderr, "fidelity tallies %llu != attempted %llu\n",
                   static_cast<unsigned long long>(sum),
                   static_cast<unsigned long long>(p->attempted));
      ++failed;
    }
  }
  bool correct = failed == 0 && !generator_bound;

  uint64_t tally = w.full + w.cached + w.busy + w.error + w.degraded;
  std::printf("perfbench %s seed=%llu seconds=%.1f trace=%d\n", mix->name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("  replies: full=%llu cached=%llu busy=%llu error=%llu degraded=%llu "
              "(sum %llu of %llu attempted); good=%llu late=%llu shed=%llu\n",
              (unsigned long long)w.full, (unsigned long long)w.cached,
              (unsigned long long)w.busy, (unsigned long long)w.error,
              (unsigned long long)w.degraded, (unsigned long long)tally,
              (unsigned long long)w.attempted, (unsigned long long)w.good,
              (unsigned long long)w.late, (unsigned long long)w.shed);
  std::printf("  gen: max_lag_ms=%.3f late_share=%.5f cpu_share=%.3f; daemon cpu "
              "utilisation %.3f of %zu threads\n",
              w.max_lag_ms, ratio(static_cast<double>(w.late_sends), w.attempted),
              gen_cpu_share, daemon_util, daemon_threads);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"goodput_rps", static_cast<double>(w.good) / w.seconds, "req/s",
                       "(good=" + std::to_string(w.good) + ")"});
    metrics.push_back({"latency_p50_ms", percentile(w.latency_us, 50) / 1e3, "ms",
                       count_note(w.latency_us.size())});
    SliceP99 p99 = slice_p99(w);
    metrics.push_back({"latency_p99_ms", p99.p99_us / 1e3, "ms",
                       "(median of " + std::to_string(p99.slices) + " slices of " +
                           short_number(p99.slice_s) + " s; whole-window p99 " +
                           short_number(percentile(w.latency_us, 99) / 1e3) + " ms)"});
    metrics.push_back({"good_ratio", ratio(static_cast<double>(w.good), w.attempted),
                       "ratio", "(attempted=" + std::to_string(w.attempted) + ")"});
    metrics.push_back({"daemon_cpu_us_per_req",
                       ratio(static_cast<double>(cpu_ns) / 1e3, w.attempted), "us",
                       "(cpu_ms=" + std::to_string(cpu_ns / 1000000) + ")"});
    metrics.push_back({"backend_calls_per_req",
                       ratio(static_cast<double>(stub_window), w.attempted), "ratio",
                       "(stub_calls=" + std::to_string(stub_window) + ")"});
    metrics.push_back({"daemon_rss_mb", rss, "MiB", ""});
    metrics.push_back({"setup_s", percentile(setup_s, 50), "s", count_note(setup_s.size())});
    print_result(correct, w.attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  // Per-layer metrics, from the traced half unless noted.
  Status agg;
  double total_p50 = 0, total_p99 = 0, batch_p99 = 0, queue_p50 = 0, queue_p99 = 0,
         rtt_p50 = 0;
  uint64_t weight = 0;
  for (const Status& s : cons.status) {
    // Members' stage quantiles are combined weighted by their sample counts.
    double wgt = static_cast<double>(std::max<uint64_t>(s.total_n, 1));
    total_p50 += s.total_p50 * wgt;
    total_p99 += s.total_p99 * wgt;
    batch_p99 += s.batch_p99 * wgt;
    queue_p50 += s.queue_p50 * wgt;
    queue_p99 += s.queue_p99 * wgt;
    rtt_p50 += s.rtt_p50 * wgt;
    weight += std::max<uint64_t>(s.total_n, 1);
    agg.calls += s.calls;
    agg.connections_opened += s.connections_opened;
    agg.flushes += s.flushes;
    agg.requests_written += s.requests_written;
    agg.rejections += s.rejections;
    agg.retries += s.retries;
    agg.timeouts += s.timeouts;
    agg.peak_in_flight = std::max(agg.peak_in_flight, s.peak_in_flight);
    agg.late_completions += s.late_completions;
    agg.coalesced += s.coalesced;
    agg.swr_hits += s.swr_hits;
    agg.refreshes += s.refreshes;
    agg.enters += s.enters;
    agg.lifo_sheds += s.lifo_sheds;
    agg.deadline_misses += s.deadline_misses;
    for (int l = 0; l < 3; ++l) {
      agg.class_issued[l] += s.class_issued[l];
      agg.class_dropped[l] += s.class_dropped[l];
    }
    if (s.picks.size() > agg.picks.size()) agg.picks.resize(s.picks.size(), 0);
    for (size_t i = 0; i < s.picks.size(); ++i) agg.picks[i] += s.picks[i];
    agg.forwards_sent += s.forwards_sent;
    agg.forward_fails += s.forward_fails;
    agg.pushes_sent += s.pushes_sent;
  }
  double wsum = static_cast<double>(std::max<uint64_t>(weight, 1));
  const double us = 1e6 / wsum;
  sbroker::net::WireStats wire1;
  uint64_t hits = 0, misses = 0;
  std::vector<Span> channel_spans;
  for (const auto& r : reports) {
    wire1.merge(r.wire);
    hits += r.cache_hits;
    misses += r.cache_misses;
    channel_spans.insert(channel_spans.end(), r.channel_spans.begin(), r.channel_spans.end());
  }
  uint64_t frames_in = wire1.frames_in - wire0.frames_in;
  uint64_t flushes = wire1.flushes - wire0.flushes;
  uint64_t flushed = wire1.flushed_responses - wire0.flushed_responses;

  double client_p50_us = percentile(traced.latency_us, 50);
  double untraced_p50_us = percentile(w.latency_us, 50);
  std::vector<float> rtt = durations_us(channel_spans);
  auto channel_parent = join_spans(traced.client_spans, channel_spans);
  auto stub_parent = join_spans(channel_spans, stub_spans);
  std::vector<float> client_self = self_times_us(traced.client_spans, channel_spans, channel_parent);
  client_self.insert(client_self.end(), traced.client_cached_us.begin(),
                     traced.client_cached_us.end());
  std::vector<float> channel_self = self_times_us(channel_spans, stub_spans, stub_parent);
  std::vector<float> stub_self = durations_us(stub_spans);
  uint64_t picks_total = 0;
  for (uint64_t p : agg.picks) picks_total += p;
  double window_s = static_cast<double>(traced.wall_ns) / 1e9;

  auto add = [&](std::string name, double v, std::string unit, std::string note = "") {
    metrics.push_back({std::move(name), v, std::move(unit), std::move(note)});
  };
  add("net.unattributed_p50_us", client_p50_us - total_p50 * us, "us",
      count_note(traced.latency_us.size()));
  add("net.frame_decode_ns", replays.decode_ns, "ns");
  add("net.frame_encode_ns", replays.encode_ns, "ns");
  add("net.replies_per_flush", ratio(flushed, flushes), "ratio",
      "(flushes=" + std::to_string(flushes) + ")");
  add("net.frames_in", static_cast<double>(frames_in), "count");
  add("net.channel.rtt_p50_us", percentile(rtt, 50), "us", count_note(rtt.size()));
  add("net.channel.rtt_p99_us", percentile(rtt, 99), "us", count_note(rtt.size()));
  add("net.channel.requests_per_flush", ratio(agg.requests_written, agg.flushes), "ratio",
      "(flushes=" + std::to_string(agg.flushes) + ")");
  add("net.channel.peak_in_flight", static_cast<double>(agg.peak_in_flight), "count");
  add("net.channel.connections_opened", static_cast<double>(agg.connections_opened), "count");
  add("net.channel.retries", static_cast<double>(agg.retries), "count");
  add("net.channel.timeouts", static_cast<double>(agg.timeouts), "count");
  add("net.channel.rejections", static_cast<double>(agg.rejections), "count");
  add("core.total_p50_us", total_p50 * us, "us", "(n=" + std::to_string(weight) + ")");
  add("core.total_p99_us", total_p99 * us, "us");
  add("core.batch_wait_p99_us", batch_p99 * us, "us");
  add("core.queue_wait_p50_us", queue_p50 * us, "us");
  add("core.queue_wait_p99_us", queue_p99 * us, "us");
  add("core.channel_rtt_p50_us", rtt_p50 * us, "us");
  add("core.cache.hit_ratio", ratio(hits, hits + misses), "ratio",
      "(lookups=" + std::to_string(hits + misses) + ")");
  add("core.cache.probe_ns", replays.probe_ns, "ns");
  add("core.cache.put_ns", replays.put_ns, "ns");
  add("core.flight.coalesced_waiters", static_cast<double>(agg.coalesced), "count");
  add("core.flight.swr_hits", static_cast<double>(agg.swr_hits), "count");
  add("core.flight.refreshes", static_cast<double>(agg.refreshes), "count");
  add("core.admission.drop_ratio.q1", ratio(agg.class_dropped[0], agg.class_issued[0]),
      "ratio", "(issued=" + std::to_string(agg.class_issued[0]) + ")");
  add("core.admission.drop_ratio.q3", ratio(agg.class_dropped[2], agg.class_issued[2]),
      "ratio", "(issued=" + std::to_string(agg.class_issued[2]) + ")");
  add("core.admission.lifo_sheds", static_cast<double>(agg.lifo_sheds), "count");
  add("core.admission.deadline_misses", static_cast<double>(agg.deadline_misses), "count");
  add("core.admission.wasted_ratio", ratio(agg.late_completions, agg.calls), "ratio",
      "(calls=" + std::to_string(agg.calls) + ")");
  add("core.admission.threshold_mean", threshold_mean, "count");
  add("core.admission.overload_enters", static_cast<double>(agg.enters), "count");
  add("core.balance.slow_share",
      agg.picks.size() > 1 ? ratio(agg.picks.back(), picks_total) : 0.0, "ratio",
      "(picks=" + std::to_string(picks_total) + ")");
  uint64_t frames_total = 0;
  for (uint64_t f : gen.frames_sent()) frames_total += f;
  add("fed.forward_extra_p50_us",
      mix->tier ? percentile(traced.remote_us, 50) - percentile(traced.local_us, 50) : 0.0, "us",
      "(remote=" + std::to_string(traced.remote_us.size()) +
          " local=" + std::to_string(traced.local_us.size()) + ")");
  add("fed.forward_ratio", ratio(agg.forwards_sent, frames_total), "ratio",
      "(frames=" + std::to_string(frames_total) + ")");
  add("fed.forward_fails", static_cast<double>(agg.forward_fails), "count");
  add("fed.pushes_sent", static_cast<double>(agg.pushes_sent), "count");
  for (size_t r = 0; r < 3; ++r) {
    bool have = r < stub_t1.calls.size();
    add("stub.calls.r" + std::to_string(r),
        have ? static_cast<double>(stub_t1.calls[r] - stub_t0.calls[r]) : 0.0, "count");
  }
  for (size_t r = 0; r < 3; ++r) {
    bool have = r < stub_t1.busy_ns.size();
    add("stub.busy_fraction.r" + std::to_string(r),
        have ? static_cast<double>(stub_t1.busy_ns[r] - stub_t0.busy_ns[r]) / 1e9 / window_s
             : 0.0,
        "ratio");
  }
  add("gen.max_lag_ms", traced.max_lag_ms, "ms");
  add("gen.late_share", ratio(traced.late_sends, traced.attempted), "ratio",
      "(sent=" + std::to_string(traced.attempted) + ")");
  add("gen.cpu_share", busy_share(traced), "ratio");
  add("trace.client_self_p50_us", percentile(client_self, 50), "us", count_note(client_self.size()));
  add("trace.channel_self_p50_us", percentile(channel_self, 50), "us",
      count_note(channel_self.size()));
  add("trace.stub_self_p50_us", percentile(stub_self, 50), "us", count_note(stub_self.size()));
  add("trace.overhead_pct",
      untraced_p50_us > 0 ? 100.0 * (client_p50_us - untraced_p50_us) / untraced_p50_us : 0.0,
      "%", "(untraced p50 " + short_number(untraced_p50_us) + " us)");
  print_result(correct, traced.attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A run that hangs must still end inside the driver's 180 s budget, with
  // no result line; children die with this process (PR_SET_PDEATHSIG).
  alarm(175);
  signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: broker_bench --workload <%s> --seed <n> --seconds <1..60> "
                 "--trace <0|1>\n",
                 mix_names().c_str());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "broker_bench: %s\n", e.what());
    return 1;
  }
}
