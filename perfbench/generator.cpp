#include "generator.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <stdexcept>

#include "fed/federation.h"
#include "net/frame.h"

namespace perfbench {

namespace frame = sbroker::net::frame;
using sbroker::http::Fidelity;

namespace {
constexpr size_t kSlotBits = 18;
constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
constexpr uint64_t kTimerTag = ~uint64_t{0};
constexpr uint8_t kPending = 1, kRecord = 2, kRemote = 4, kTraced = 8;
constexpr int64_t kSpinNs = 50000;

int64_t thread_cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// query_for() into `buf` (at least 48 bytes), without allocating.
std::string_view format_query(char* buf, uint64_t key, size_t bytes) {
  char* p = buf;
  *p++ = '/';
  *p++ = 'o';
  *p++ = '/';
  p = std::to_chars(p, buf + 40, key).ptr;
  *p++ = '/';
  p = std::to_chars(p, buf + 48, bytes).ptr;
  return std::string_view(buf, static_cast<size_t>(p - buf));
}
}  // namespace

uint64_t key_stream_seed(uint64_t seed, uint64_t phase, size_t conn) {
  return sbroker::util::derive_seed(sbroker::util::derive_seed(seed, phase * 64 + conn), 1);
}

KeyStream::KeyStream(const Mix& mix, uint64_t seed) : mix_(mix), rng_(seed) {
  if (mix.zipf > 0.0) {
    zipf_ = std::make_unique<sbroker::util::ZipfGenerator>(mix.keys, mix.zipf);
  }
}

uint64_t KeyStream::next_key() {
  if (mix_.hot_keys > 0 && rng_.bernoulli(mix_.hot_share)) {
    return static_cast<uint64_t>(
        rng_.uniform_int(0, static_cast<int64_t>(mix_.hot_keys) - 1));
  }
  uint64_t rank = zipf_ ? zipf_->next(rng_) - 1
                        : static_cast<uint64_t>(rng_.uniform_int(
                              0, static_cast<int64_t>(mix_.keys) - 1));
  return mix_.hot_keys + rank;
}

struct Generator::Slot {
  uint64_t id = 0;
  int64_t t0 = 0;  ///< intended (open loop) or actual (closed loop) send time
  uint32_t key = 0;
  uint8_t conn = 0;
  uint8_t flags = 0;
};

struct Generator::Conn {
  int fd = -1;
  uint32_t member = 0;
  std::string out;
  size_t out_off = 0;
  bool watching_out = false;
  std::string in;
  size_t in_off = 0;
  std::unique_ptr<KeyStream> keys;
  std::unique_ptr<sbroker::wl::ArrivalSchedule> base;  ///< open loop
  std::unique_ptr<sbroker::wl::ArrivalSchedule> step;  ///< after the step
  bool stepped = false;
  int64_t next_due = 0;
};

Generator::Generator(const Mix& mix, uint64_t seed, std::vector<Target> targets,
                     const std::vector<uint16_t>& ring_ports)
    : mix_(mix), seed_(seed), slots_(size_t{1} << kSlotBits) {
  if (!ring_ports.empty()) {
    ring_ = std::make_unique<sbroker::fed::Ring>(
        sbroker::fed::member_identities(ring_ports));
    member_sent_.assign(ring_ports.size(), 0);
  } else {
    member_sent_.assign(1, 0);
  }
  ep_ = epoll_create1(EPOLL_CLOEXEC);
  timer_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = kTimerTag;
  epoll_ctl(ep_, EPOLL_CTL_ADD, timer_, &tev);
  for (size_t i = 0; i < targets.size(); ++i) {
    auto c = std::make_unique<Conn>();
    c->member = targets[i].member;
    c->fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(targets[i].port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (c->fd < 0 ||
        connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("generator connect failed");
    }
    int one = 1;
    setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    int flags = fcntl(c->fd, F_GETFL, 0);
    fcntl(c->fd, F_SETFL, flags | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    epoll_ctl(ep_, EPOLL_CTL_ADD, c->fd, &ev);
    conns_.push_back(std::move(c));
  }
}

Generator::~Generator() {
  for (auto& c : conns_) {
    if (c->fd >= 0) close(c->fd);
  }
  if (timer_ >= 0) close(timer_);
  if (ep_ >= 0) close(ep_);
}

void Generator::violation(PhaseResult& r, std::string note) {
  ++r.violations;
  if (r.notes.size() < 8) r.notes.push_back(std::move(note));
}

void Generator::send_one(size_t ci, int64_t intended, int64_t now, PhaseResult& r) {
  Conn& c = *conns_[ci];
  uint64_t key = c.keys->next_key();
  uint8_t qos = c.keys->next_qos();
  uint64_t id = next_id_++;
  Slot& s = slots_[id & kSlotMask];
  if (s.flags & kPending) {
    violation(r, "more than 2^18 requests in flight");
    return;
  }
  char qbuf[48];
  std::string_view query = format_query(qbuf, key, mix_.body_bytes);
  s.id = id;
  s.t0 = intended;
  s.key = static_cast<uint32_t>(key);
  s.conn = static_cast<uint8_t>(ci);
  s.flags = kPending;
  if (recording_) s.flags |= kRecord;
  if (traced_) s.flags |= kTraced;
  if (ring_ && ring_->owner(query) != c.member) s.flags |= kRemote;
  frame::Request req;
  req.request_id = id;
  req.qos_level = qos;
  req.deadline_ms = mix_.deadline_ms;
  req.query = query;
  frame::encode_request(req, c.out);
  ++outstanding_;
  ++member_sent_[c.member];
  if (recording_) {
    ++r.attempted;
    if (mix_.open_loop) {
      double lag_ms = static_cast<double>(now - intended) / 1e6;
      if (lag_ms > 1.0) ++r.late_sends;
      r.max_lag_ms = std::max(r.max_lag_ms, lag_ms);
    }
  }
}

void Generator::flush(size_t ci) {
  Conn& c = *conns_[ci];
  while (c.out_off < c.out.size()) {
    ssize_t n = write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
  bool want_out = !c.out.empty();
  if (want_out != c.watching_out) {
    epoll_event ev{};
    ev.events = want_out ? EPOLLIN | EPOLLOUT : EPOLLIN;
    ev.data.u64 = ci;
    epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
    c.watching_out = want_out;
  }
}

void Generator::on_reply(size_t ci, uint64_t id, uint8_t fidelity, uint8_t flags,
                         std::string_view payload, int64_t now, PhaseResult& r) {
  Slot& s = slots_[id & kSlotMask];
  if (s.id != id || !(s.flags & kPending) || s.conn != ci) {
    violation(r, "reply for request id " + std::to_string(id) + " not in flight");
    return;
  }
  s.flags &= static_cast<uint8_t>(~kPending);
  --outstanding_;
  ++replies_;
  Fidelity fid = static_cast<Fidelity>(fidelity);
  bool record = s.flags & kRecord;
  if (flags != frame::flags_for(fid)) {
    violation(r, "reply " + std::to_string(id) + ": flags " + std::to_string(flags) +
                     " do not match fidelity " + std::to_string(fidelity));
  }
  bool useful = false;
  switch (fid) {
    case Fidelity::kFull:
    case Fidelity::kCached:
      if (!body_matches(s.key, mix_.body_bytes, payload)) {
        violation(r, "reply " + std::to_string(id) + ": wrong body for key " +
                         std::to_string(s.key));
      } else {
        useful = true;
      }
      if (record) ++(fid == Fidelity::kFull ? r.full : r.cached);
      break;
    case Fidelity::kBusy:
      if (record) ++r.busy;
      break;
    case Fidelity::kError:
      if (record) ++r.error;
      break;
    case Fidelity::kDegraded:
      if (record) ++r.degraded;
      break;
    default:
      violation(r, "reply " + std::to_string(id) + ": unknown fidelity");
      break;
  }
  if (record) {
    double lat_us = static_cast<double>(now - s.t0) / 1e3;
    if (useful && lat_us <= mix_.deadline_ms * 1e3) {
      ++r.good;
      size_t slice = static_cast<size_t>((now - phase_start_) / kSliceNs);
      while (r.slice_marks.size() <= slice) {
        r.slice_marks.push_back(static_cast<uint32_t>(r.latency_us.size()));
      }
      r.latency_us.push_back(static_cast<float>(lat_us));
      if (ring_) {
        (s.flags & kRemote ? r.remote_us : r.local_us).push_back(static_cast<float>(lat_us));
      }
      if (s.flags & kTraced) {
        if (flags & frame::kFlagCacheServed) {
          r.client_cached_us.push_back(static_cast<float>(lat_us));
        } else {
          r.client_spans.push_back(Span{s.key, s.t0, now});
        }
      }
    } else if (useful) {
      ++r.late;
    } else if (fid == Fidelity::kBusy) {
      ++r.shed;
    }
  }
  if (!mix_.open_loop && sending_) send_one(ci, now, now, r);
}

void Generator::on_readable(size_t ci, int64_t now, PhaseResult& r) {
  Conn& c = *conns_[ci];
  char buf[65536];
  for (;;) {
    ssize_t n = read(c.fd, buf, sizeof(buf));
    if (n > 0) {
      c.in.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
    violation(r, "connection " + std::to_string(ci) + " closed by the daemon");
    epoll_ctl(ep_, EPOLL_CTL_DEL, c.fd, nullptr);
    close(c.fd);
    c.fd = -1;
    break;
  }
  for (;;) {
    std::string_view view(c.in.data() + c.in_off, c.in.size() - c.in_off);
    frame::Reply rep;
    size_t used = 0;
    frame::ParseResult pr = frame::parse_reply(view, rep, &used);
    if (pr == frame::ParseResult::kNeedMore) break;
    if (pr == frame::ParseResult::kError) {
      violation(r, "malformed reply frame");
      c.in_off = c.in.size();
      break;
    }
    on_reply(ci, rep.request_id, static_cast<uint8_t>(rep.fidelity), rep.flags,
             rep.payload, now, r);
    c.in_off += used;
  }
  if (c.in_off == c.in.size()) {
    c.in.clear();
    c.in_off = 0;
  } else if (c.in_off > 65536) {
    c.in.erase(0, c.in_off);
    c.in_off = 0;
  }
}

PhaseResult Generator::run_phase(double seconds, uint64_t max_replies, bool record,
                                 bool traced, uint64_t index) {
  PhaseResult r;
  r.seconds = seconds;
  recording_ = record;
  traced_ = traced;
  const int64_t start = now_ns();
  phase_start_ = start;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t step_at = start + static_cast<int64_t>(mix_.step_at * seconds * 1e9);
  const size_t n = conns_.size();
  auto next_offset = [&](Conn& c) -> int64_t {
    if (!c.stepped) {
      double t = c.base->next();
      if (mix_.step_at <= 0.0 || start + static_cast<int64_t>(t * 1e9) < step_at) {
        return start + static_cast<int64_t>(t * 1e9);
      }
      c.stepped = true;
    }
    return step_at + static_cast<int64_t>(c.step->next() * 1e9);
  };
  for (size_t i = 0; i < n; ++i) {
    Conn& c = *conns_[i];
    uint64_t base = sbroker::util::derive_seed(seed_, index * 64 + i);
    c.keys = std::make_unique<KeyStream>(mix_, key_stream_seed(seed_, index, i));
    if (mix_.open_loop) {
      sbroker::wl::ArrivalConfig ac;
      ac.rate = mix_.rate / static_cast<double>(n);
      c.base = std::make_unique<sbroker::wl::ArrivalSchedule>(
          ac, sbroker::util::derive_seed(base, 2));
      ac.rate = (mix_.step_rate > 0 ? mix_.step_rate : mix_.rate) / static_cast<double>(n);
      c.step = std::make_unique<sbroker::wl::ArrivalSchedule>(
          ac, sbroker::util::derive_seed(base, 3));
      c.stepped = false;
      c.next_due = next_offset(c);
    }
  }
  const int64_t cpu0 = thread_cpu_ns();
  replies_ = 0;
  sending_ = true;
  if (!mix_.open_loop) {
    int64_t now = now_ns();
    for (size_t i = 0; i < n; ++i) {
      for (size_t w = 0; w < mix_.window; ++w) send_one(i, now, now, r);
    }
  }
  const int64_t drain_limit = static_cast<int64_t>(mix_.deadline_ms) * 1000000 +
                              2000000000;
  int64_t armed = -1;
  epoll_event events[64];
  for (;;) {
    int64_t now = now_ns();
    int64_t wake = 0;
    if (sending_) {
      if (mix_.open_loop) {
        bool any = false;
        int64_t next = 0;
        for (size_t i = 0; i < n; ++i) {
          Conn& c = *conns_[i];
          while (c.next_due < end && c.next_due <= now) {
            send_one(i, c.next_due, now, r);
            c.next_due = next_offset(c);
          }
          if (c.next_due < end) {
            any = true;
            if (next == 0 || c.next_due < next) next = c.next_due;
          }
        }
        if (!any) sending_ = false;
        wake = any ? next - kSpinNs : 0;
      } else if (now >= end || (max_replies > 0 && replies_ >= max_replies)) {
        sending_ = false;
      } else {
        wake = end;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (conns_[i]->fd >= 0 && !conns_[i]->out.empty()) flush(i);
    }
    if (!sending_) {
      if (outstanding_ == 0) break;
      if (now > end + drain_limit) {
        violation(r, std::to_string(outstanding_) + " requests never answered");
        r.violations += outstanding_ - 1;
        for (Slot& s : slots_) s.flags &= static_cast<uint8_t>(~kPending);
        outstanding_ = 0;
        break;
      }
      wake = end + drain_limit;
    }
    // Open loop: sleep until kSpinNs before the next arrival, then poll
    // without sleeping, so the thread's own wake-up latency is not added to
    // the send time (and so to every latency timed from it).
    const bool spin = mix_.open_loop && sending_ && wake != 0 && wake <= now;
    if (!spin && wake != armed) {
      itimerspec its{};
      its.it_value.tv_sec = wake / 1000000000;
      its.it_value.tv_nsec = wake % 1000000000;
      timerfd_settime(timer_, TFD_TIMER_ABSTIME, &its, nullptr);
      armed = wake;
    }
    int got = epoll_wait(ep_, events, 64, spin ? 0 : -1);
    if (got < 0 && errno != EINTR) break;
    int64_t polled = now;
    now = now_ns();
    if (spin && got <= 0) r.spin_ns += now - polled;
    for (int e = 0; e < got; ++e) {
      uint64_t tag = events[e].data.u64;
      if (tag == kTimerTag) {
        uint64_t expirations;
        ssize_t rd = read(timer_, &expirations, sizeof(expirations));
        (void)rd;
        armed = -1;
        continue;
      }
      if (conns_[tag]->fd < 0) continue;
      if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) on_readable(tag, now, r);
      if (conns_[tag]->fd >= 0 && (events[e].events & EPOLLOUT)) flush(tag);
    }
  }
  r.cpu_ns = thread_cpu_ns() - cpu0;
  r.wall_ns = now_ns() - start;
  recording_ = false;
  traced_ = false;
  return r;
}

}  // namespace perfbench
