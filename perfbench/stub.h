// Backend stub: a forked single-threaded HTTP/1.1 server with N serial
// replicas (one listening port each). A replica serves one request at a
// time for a fixed service time, queueing the rest behind a busy-until
// cursor, and answers pipelined requests in order — which the daemon's
// PipelinedBackend requires. Every target "/o/<key>/<bytes>" is answered
// with append_body(key, bytes).
//
// The stub counts requests where they arrive, so "backend calls" are
// counted independently of the daemon's own counters. Timers are timerfd
// based (nanosecond resolution): a 100 µs service time is 100 µs, not a
// millisecond reactor tick.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"

namespace perfbench {

struct StubConfig {
  size_t replicas = 1;
  double svc_us = 0.0;    ///< service time per request; 0 = answer at once
  double slow_mult = 1.0; ///< factor on the last replica's service time
  std::vector<int> cpus;  ///< affinity of the stub process
};

class Stub {
 public:
  explicit Stub(const StubConfig& config);  ///< forks; throws on failure
  ~Stub();
  Stub(const Stub&) = delete;
  Stub& operator=(const Stub&) = delete;

  const std::vector<uint16_t>& ports() const { return ports_; }

  struct Stats {
    std::vector<uint64_t> calls;   ///< requests received, per replica
    std::vector<int64_t> busy_ns;  ///< service time booked, per replica
    uint64_t total_calls() const;
  };
  /// Counters since the stub started; throws if the stub does not answer.
  Stats stats();
  /// Starts recording one span per request (arrival to reply written).
  void trace_on();
  /// Stops the stub and returns the recorded spans.
  std::vector<Span> finish();

 private:
  Child child_;
  std::vector<uint16_t> ports_;
};

}  // namespace perfbench
