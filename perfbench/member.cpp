#include "member.h"

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/backend.h"
#include "fed/federation.h"
#include "net/pipelined_backend.h"
#include "net/sharded_daemon.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace sbroker;

/// Backend decorator: forwards every call to the pipelined channel and, while
/// tracing is on, records a span from invoke to completion. Single-threaded
/// like the channel it wraps (one instance per shard and replica).
class TimedBackend final : public core::Backend {
 public:
  TimedBackend(std::shared_ptr<net::PipelinedBackend> inner,
               const std::atomic<bool>& tracing)
      : inner_(std::move(inner)), tracing_(tracing) {}

  void invoke(const Call& call, Completion done) override {
    invoke(call, nullptr, std::move(done));
  }

  void invoke(const Call& call, const core::CancelTokenPtr& token,
              Completion done) override {
    if (!tracing_.load(std::memory_order_relaxed)) {
      inner_->invoke(call, token, std::move(done));
      return;
    }
    Span span;
    size_t bytes = 0;
    parse_query(call.payload, span.key, bytes);
    span.start = now_ns();
    inner_->invoke(call, token,
                   [this, span, done = std::move(done)](
                       double now, bool ok, const std::string& payload) mutable {
                     span.end = now_ns();
                     spans_.push_back(span);
                     done(now, ok, payload);
                   });
  }

  core::ChannelStats channel_stats() const override { return inner_->channel_stats(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::shared_ptr<net::PipelinedBackend> inner_;
  const std::atomic<bool>& tracing_;
  std::vector<Span> spans_;
};

net::ShardedBrokerDaemonConfig daemon_config(const MemberConfig& mc) {
  const Mix& mix = *mc.mix;
  net::ShardedBrokerDaemonConfig dc;
  dc.shards = mc.shards;
  dc.enable_udp = false;
  // Round-robin placement: four connections land two per shard on every
  // run, where SO_REUSEPORT hashing could put three on one shard.
  dc.force_acceptor_fallback = true;
  dc.broker.rules = core::QosRules{3, mix.threshold};
  dc.broker.enable_cache = true;
  dc.broker.cache_capacity = mix.cache_capacity;
  dc.broker.cache_ttl = mix.cache_ttl;
  dc.broker.cache_tuning.swr_grace = mix.swr_grace;
  dc.broker.dispatch_window = mix.dispatch_window;
  dc.broker.rng_seed = util::derive_seed(mc.seed, 0x6d656d00 + mc.node);
  if (mix.aimd_lifo) {
    dc.broker.overload.policy = core::OverloadPolicy::kAimd;
    dc.broker.overload.lifo = true;
    dc.broker.overload.eval_interval = 0.1;
  }
  dc.admin.enabled = true;
  dc.admin.port = 0;
  return dc;
}

/// Pins each shard thread to its own CPU of `cpus`. The shard threads are
/// the newest threads of the process once start() returned (the admin
/// thread and the control thread are older); the rest keep every member CPU.
void pin_shard_threads(size_t shards, const std::vector<int>& cpus) {
  if (cpus.size() < 2) return;
  std::vector<pid_t> tids;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') tids.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
    }
    closedir(d);
  }
  std::sort(tids.begin(), tids.end());
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  for (size_t i = 0; i < shards && i < tids.size(); ++i) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<int>(cpus[i % cpus.size()] % std::max(1L, n)), &set);
    sched_setaffinity(tids[tids.size() - shards + i], sizeof(set), &set);
  }
}

/// Child side: answers the control socket until 'Q'.
void serve_control(int ctl, net::ShardedBrokerDaemon& daemon, uint16_t port,
                   std::atomic<bool>& tracing,
                   const std::vector<std::shared_ptr<TimedBackend>>& backends,
                   const std::function<void()>& stop) {
  write_all(ctl, "ready " + std::to_string(port) + " " +
                     std::to_string(daemon.admin_port()) + "\n");
  auto wire_line = [](const net::WireStats& w) {
    std::ostringstream o;
    o << "wire " << w.frames_in << " " << w.fast_hits << " " << w.flushes << " "
      << w.flushed_responses << "\n";
    return o.str();
  };
  for (;;) {
    char cmd = 0;
    ssize_t n = read(ctl, &cmd, 1);
    if (n <= 0) {
      stop();
      return;
    }
    if (cmd == 'T') {
      tracing.store(true);
      write_all(ctl, wire_line(daemon.aggregate_wire_stats()));
    } else if (cmd == 'Q') {
      net::WireStats wire = daemon.aggregate_wire_stats();
      stop();
      std::string out = wire_line(wire);
      out += "cache " + std::to_string(daemon.shared_cache().hits()) + " " +
             std::to_string(daemon.shared_cache().misses()) + "\n";
      for (const auto& b : backends) append_spans(b->spans(), out);
      write_all(ctl, out);
      return;
    }
  }
}

void run_member(const MemberConfig& mc, int ctl) {
  pin_to(mc.cpus);
  net::ShardedBrokerDaemonConfig dc = daemon_config(mc);
  std::atomic<bool> tracing{false};
  std::vector<std::shared_ptr<TimedBackend>> backends;
  core::PoolConfig pool = dc.broker.pool;
  auto factory = [&backends, &tracing, pool](uint16_t backend_port) {
    return [&backends, &tracing, pool, backend_port](net::Reactor& reactor, size_t) {
      auto channel = std::make_shared<net::PipelinedBackend>(
          reactor, backend_port, net::PipelinedBackend::Config::from_pool(pool));
      auto timed = std::make_shared<TimedBackend>(std::move(channel), tracing);
      backends.push_back(timed);
      return timed;
    };
  };
  if (mc.peer_ports.empty()) {
    net::ShardedBrokerDaemon daemon(mc.mix->name, dc);
    for (uint16_t p : mc.backend_ports) daemon.add_backend(factory(p));
    daemon.start();
    pin_shard_threads(mc.shards, mc.cpus);
    serve_control(ctl, daemon, daemon.port(), tracing, backends,
                  [&daemon] { daemon.stop(); });
    return;
  }
  fed::FedNodeConfig fc;
  fc.node_id = mc.node;
  fc.peer_ports = mc.peer_ports;
  fc.gossip_interval = 0.02;
  fc.dial_backoff = 0.05;
  fc.forward_timeout = 0.5;
  fed::FederatedDaemon member(std::string(mc.mix->name) + "-" + std::to_string(mc.node),
                              dc, fc);
  for (uint16_t p : mc.backend_ports) member.add_backend(factory(p));
  member.start();
  serve_control(ctl, member.daemon(), member.port(), tracing, backends,
                [&member] { member.stop(); });
}

}  // namespace

Member::Member(const MemberConfig& config) {
  child_ = fork_child([config](int ctl) { run_member(config, ctl); });
  std::string line;
  if (!read_line(child_.ctl, line, 20000)) {
    reap(child_);
    throw std::runtime_error("member did not start");
  }
  unsigned port = 0, admin = 0;
  if (std::sscanf(line.c_str(), "ready %u %u", &port, &admin) != 2) {
    reap(child_);
    throw std::runtime_error("member sent '" + line + "'");
  }
  port_ = static_cast<uint16_t>(port);
  admin_port_ = static_cast<uint16_t>(admin);
}

Member::~Member() { reap(child_); }

namespace {
net::WireStats parse_wire(const std::string& line) {
  net::WireStats w;
  unsigned long long a = 0, b = 0, c = 0, d = 0;
  std::sscanf(line.c_str(), "wire %llu %llu %llu %llu", &a, &b, &c, &d);
  w.frames_in = a;
  w.fast_hits = b;
  w.flushes = c;
  w.flushed_responses = d;
  return w;
}
}  // namespace

net::WireStats Member::trace_on() {
  write_all(child_.ctl, "T");
  std::string line;
  if (!read_line(child_.ctl, line, 10000)) throw std::runtime_error("member trace timed out");
  return parse_wire(line);
}

Member::Report Member::finish() {
  std::istringstream in(finish_child(child_));
  Report r;
  std::string line;
  std::getline(in, line);
  r.wire = parse_wire(line);
  std::string word;
  unsigned long long hits = 0, misses = 0;
  in >> word >> hits >> misses;
  r.cache_hits = hits;
  r.cache_misses = misses;
  r.channel_spans = read_spans(in);
  return r;
}

}  // namespace perfbench
