// Shared pieces of the broker benchmark: the traffic mixes, the key and body
// formats the generator and the backend stub agree on, spans, and the
// process plumbing (fork, control sockets, /proc readers).
//
// Process layout of one run (see run.py for the command line):
//
//   parent   the load generator (one thread, epoll) and the reporting code
//   stub     a forked HTTP/1.1 backend: serial replicas with fixed service
//            times, answering every key with a deterministic body
//   members  forked daemon processes: one net::ShardedBrokerDaemon with two
//            shards, or two fed::FederatedDaemon members with one shard each
//
// Every child talks to the parent over a socketpair ("control socket"): the
// parent sends one command byte, the child answers with text lines. Keeping
// the daemon in its own process lets its CPU time and peak RSS be read from
// /proc/<pid> without generator work landing in them.
#pragma once

#include <sys/types.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds: one clock shared by every process of a
/// run, so spans recorded in different processes can be joined.
inline int64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// One traffic mix. All rates were measured once on the reference host (4
/// CPUs, see README.md) and are fixed here; they are never recalibrated.
struct Mix {
  const char* name;
  bool tier;              ///< two federation members instead of one daemon
  bool open_loop;         ///< Poisson arrivals; else closed loop
  size_t window;          ///< closed loop: frames in flight per connection
  double rate;            ///< open loop: offered req/s (before any step)
  double step_at;         ///< share of the window where the rate steps; 0 = none
  double step_rate;       ///< offered req/s after the step
  size_t body_bytes;      ///< reply body size
  uint64_t keys;          ///< cold key space
  double zipf;            ///< Zipf exponent over the cold keys; 0 = uniform
  double hot_share;       ///< share of requests that go to the hot keys
  uint64_t hot_keys;      ///< hot key count (ids below the cold keys)
  uint32_t deadline_ms;   ///< per-request deadline carried in the frame
  size_t replicas;        ///< stub replicas (serial servers)
  double svc_us;          ///< stub service time per request
  double slow_mult;       ///< service-time factor of the last replica
  size_t cache_capacity;  ///< shared cache entries (per member)
  double cache_ttl;       ///< seconds
  double swr_grace;       ///< stale-while-revalidate grace, seconds
  double threshold;       ///< QoS admission threshold (outstanding requests)
  bool aimd_lifo;         ///< overload controller: aimd + LIFO, else static
  size_t dispatch_window; ///< batches in flight per shard; 0 = unbounded
  uint64_t warmup;        ///< closed loop: replies; open loop: milliseconds
};

/// The mix named `name`, or nullptr.
const Mix* find_mix(std::string_view name);
/// Comma-separated mix names, for usage messages.
std::string mix_names();

/// Backend target for a key: "/o/<key>/<body bytes>".
std::string query_for(uint64_t key, size_t body_bytes);
/// Inverse of query_for; false for anything else.
bool parse_query(std::string_view query, uint64_t& key, size_t& body_bytes);
/// Appends the stub's deterministic body for `key`.
void append_body(uint64_t key, size_t body_bytes, std::string& out);
/// True when `body` is exactly the stub's body for `key`.
bool body_matches(uint64_t key, size_t body_bytes, std::string_view body);

/// Key of the probe frame each member answers during set-up. Outside every
/// mix's key range, so probes never touch measured keys.
inline constexpr uint64_t kProbeKeyBase = 4000000000ull;

/// One span: a key and an interval in now_ns() time.
struct Span {
  uint64_t key = 0;
  int64_t start = 0;
  int64_t end = 0;
};

/// A forked child and the parent's end of its control socket.
struct Child {
  pid_t pid = -1;
  int ctl = -1;
};

/// Forks a child that runs `body(ctl_fd)` and then exits; the child dies
/// with the parent (PR_SET_PDEATHSIG). Call only while the parent has one
/// thread. Throws on failure.
Child fork_child(const std::function<void(int ctl)>& body);

/// SIGKILLs and reaps a child that is still running; closes its socket.
void reap(Child& child);

/// Sends the child 'Q', returns everything it writes until it closes the
/// socket, and reaps it. Throws when the child does not finish in time.
std::string finish_child(Child& child);

/// Spans as text, one "key start end" line each: how children hand their
/// spans to the parent when they finish.
void append_spans(const std::vector<Span>& spans, std::string& out);
/// Parses such lines up to the end of `in`.
std::vector<Span> read_spans(std::istream& in);

/// Pins the calling thread (and children forked later) to `cpus`; cpus
/// beyond the host's count wrap around. Best effort.
void pin_to(const std::vector<int>& cpus);

/// Total on-CPU time of every thread of `pid` (user + system), from
/// /proc/<pid>/task/*/schedstat; -1 when unreadable.
int64_t proc_cpu_ns(pid_t pid);
/// Peak resident set (VmHWM) of `pid` in MiB; -1 when unreadable.
double proc_hwm_mib(pid_t pid);

/// Blocking I/O on control sockets. read_line waits at most `timeout_ms`
/// and returns false on timeout, EOF or error.
void write_all(int fd, std::string_view bytes);
bool read_line(int fd, std::string& line, int timeout_ms);
/// Reads until EOF (at most `timeout_ms` in total).
bool read_to_eof(int fd, std::string& out, int timeout_ms);

/// Sends one request frame for `key` to 127.0.0.1:`port` and waits for its
/// reply: true when it arrives full or cached with the expected body. Used
/// as the set-up readiness probe; retries the connect until `timeout_ms`.
bool probe_member(uint16_t port, uint64_t key, size_t body_bytes, int timeout_ms);

/// Binds an ephemeral loopback port and releases it, so a forked member can
/// bind it (federation members must know each other's ports up front).
uint16_t reserve_port();

/// Percentile (0..100) of `values` by nearest rank; 0 for an empty set.
template <typename T>
double percentile(std::vector<T> values, double pct) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  if (rank > 0) --rank;
  if (rank >= values.size()) rank = values.size() - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return static_cast<double>(values[rank]);
}

}  // namespace perfbench
