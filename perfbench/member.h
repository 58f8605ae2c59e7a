// Daemon under test, in a forked child process ("member").
//
// A member is either one net::ShardedBrokerDaemon (2 shards, the
// examples/real_proxy shape: PipelinedBackend channels and the shared
// striped cache) or one fed::FederatedDaemon of a two-member tier. Every
// backend channel is wrapped in a TimedBackend decorator (installed through
// add_backend) that, once tracing is switched on, records one span per
// invoke from dispatch to completion; the spans and the wire counters come
// back to the parent when the member is finished.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "net/broker_daemon.h"

namespace perfbench {

struct MemberConfig {
  const Mix* mix = nullptr;
  uint64_t seed = 0;
  size_t shards = 2;
  std::vector<uint16_t> backend_ports;  ///< one per stub replica
  /// Federation: this member's index into peer_ports; empty peer_ports = a
  /// plain sharded daemon on an ephemeral port.
  uint32_t node = 0;
  std::vector<uint16_t> peer_ports;
  std::vector<int> cpus;  ///< affinity of the member process
};

class Member {
 public:
  /// Forks the member and waits until its daemon has started.
  explicit Member(const MemberConfig& config);
  ~Member();  ///< SIGKILLs the member if finish() was not called
  Member(const Member&) = delete;
  Member& operator=(const Member&) = delete;

  pid_t pid() const { return child_.pid; }
  uint16_t port() const { return port_; }
  uint16_t admin_port() const { return admin_port_; }

  /// Switches span recording on; returns the wire counters at that moment.
  sbroker::net::WireStats trace_on();

  struct Report {
    sbroker::net::WireStats wire;  ///< at finish, before the daemon stopped
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    std::vector<Span> channel_spans;
  };
  /// Stops the daemon, collects its report and reaps the process.
  Report finish();

 private:
  Child child_;
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;
};

}  // namespace perfbench
