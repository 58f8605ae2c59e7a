// Load generator: one thread, one epoll set, at most four connections.
//
// Requests are binary frames (net/frame.h), pipelined on every connection
// and matched to replies by request id. Per connection the key, QoS class
// and (open loop) intended send times are drawn from util::Rng /
// wl::ArrivalSchedule streams seeded by util::derive_seed(seed, ...), so a
// seed fixes every connection's request sequence.
//
// Closed loop keeps `window` frames in flight per connection and times each
// request from its actual send. Open loop sends on the Poisson schedule
// whatever the replies do and times each request from its intended send
// time; a timerfd with 1 ns slack wakes the thread 50 µs before each due
// arrival and the thread polls from there, so its own wake-up latency does
// not delay sends.
//
// Every reply is checked: the id must be one in flight on that connection,
// the flags must be the ones its fidelity implies, and a full or cached body
// must equal the stub's body for the key. Anything else is a violation.
// Busy and error replies are the daemon's explicit answers: they count
// against goodput, not as violations.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "fed/ring.h"
#include "util/rng.h"
#include "wl/arrival.h"

namespace perfbench {

/// Seed of connection `conn`'s key stream in phase `phase`; the per-layer
/// replays rebuild a phase's request bytes from it.
uint64_t key_stream_seed(uint64_t seed, uint64_t phase, size_t conn);

/// Granularity of PhaseResult::slice_marks: 1/64 s.
inline constexpr int64_t kSliceNs = 15625000;

struct Target {
  uint16_t port = 0;
  uint32_t member = 0;  ///< index of the member the connection enters
};

/// Draws (key, QoS class) pairs for one connection of a mix.
class KeyStream {
 public:
  KeyStream(const Mix& mix, uint64_t seed);
  uint64_t next_key();
  uint8_t next_qos() { return static_cast<uint8_t>(rng_.uniform_int(1, 3)); }

 private:
  const Mix& mix_;
  sbroker::util::Rng rng_;
  std::unique_ptr<sbroker::util::ZipfGenerator> zipf_;
};

struct PhaseResult {
  double seconds = 0.0;      ///< sending window length
  int64_t wall_ns = 0;       ///< window plus drain
  uint64_t attempted = 0;    ///< requests sent in the window
  uint64_t good = 0;         ///< full/cached, right body, within the deadline
  uint64_t late = 0;         ///< full/cached but past the deadline
  uint64_t shed = 0;         ///< busy replies
  uint64_t full = 0, cached = 0, busy = 0, error = 0, degraded = 0;
  uint64_t violations = 0;   ///< wrong id/body/flags, closed connection, no reply
  std::vector<std::string> notes;  ///< first few violations, for stderr
  std::vector<float> latency_us;   ///< useful replies, in arrival order
  /// slice_marks[i] = index into latency_us of the first reply that arrived
  /// in the i-th kSliceNs of the phase (replies arrive in clock order).
  std::vector<uint32_t> slice_marks;
  std::vector<float> local_us;     ///< tier: keys owned by the entry member
  std::vector<float> remote_us;    ///< tier: keys owned by the other member
  uint64_t late_sends = 0;   ///< open loop: sent > 1 ms behind schedule
  double max_lag_ms = 0.0;
  int64_t cpu_ns = 0;        ///< generator thread CPU over the phase
  int64_t spin_ns = 0;       ///< part of cpu_ns spent polling for a due send
  /// Traced: one span per useful reply that was not cache-served (the only
  /// ones a backend exchange can sit inside); cache-served replies have no
  /// children, so only their latency is kept.
  std::vector<Span> client_spans;
  std::vector<float> client_cached_us;
};

class Generator {
 public:
  /// `ring_ports` non-empty = a federation: ownership of each key is tagged
  /// with a fed::Ring built on the same member list as the members'.
  Generator(const Mix& mix, uint64_t seed, std::vector<Target> targets,
            const std::vector<uint16_t>& ring_ports);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Runs one phase and drains it: sends for `seconds` (closed loop: or
  /// until `max_replies` replies, when non-zero), then waits for every
  /// outstanding reply. Only a `record` phase fills the result's counts and
  /// latencies; `traced` also keeps client spans. `index` selects the
  /// phase's random streams (see key_stream_seed).
  PhaseResult run_phase(double seconds, uint64_t max_replies, bool record,
                        bool traced, uint64_t index);

  /// Frames sent to each member since construction.
  const std::vector<uint64_t>& frames_sent() const { return member_sent_; }

 private:
  struct Conn;
  struct Slot;
  void send_one(size_t ci, int64_t intended, int64_t now, PhaseResult& r);
  void on_readable(size_t ci, int64_t now, PhaseResult& r);
  void on_reply(size_t ci, uint64_t id, uint8_t fidelity, uint8_t flags,
                std::string_view payload, int64_t now, PhaseResult& r);
  void flush(size_t ci);
  void violation(PhaseResult& r, std::string note);

  const Mix& mix_;
  uint64_t seed_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Slot> slots_;
  std::unique_ptr<sbroker::fed::Ring> ring_;
  std::vector<uint64_t> member_sent_;
  int ep_ = -1;
  int timer_ = -1;
  uint64_t next_id_ = 1;
  uint64_t outstanding_ = 0;
  bool sending_ = false;
  bool recording_ = false;
  bool traced_ = false;
  uint64_t replies_ = 0;
  int64_t phase_start_ = 0;
};

}  // namespace perfbench
