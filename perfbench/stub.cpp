#include "stub.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace perfbench {
namespace {

constexpr uint64_t kCtlTag = 0;
constexpr uint64_t kTimerTag = 1;
constexpr uint64_t kListenTag = 2;       ///< + replica index
constexpr uint64_t kConnTagBase = 1000;  ///< + connection serial

struct Conn {
  int fd = -1;
  size_t replica = 0;
  std::string in;
  std::string out;
  size_t out_off = 0;
  bool watching_out = false;
};

struct Pending {
  int64_t ready = 0;
  int64_t arrival = 0;
  uint64_t key = 0;
  size_t bytes = 0;
  uint64_t conn = 0;
  bool ok = true;
};

class StubServer {
 public:
  StubServer(const StubConfig& config, int ctl) : config_(config), ctl_(ctl) {
    replicas_ = std::max<size_t>(1, config.replicas);
    busy_until_.assign(replicas_, 0);
    calls_.assign(replicas_, 0);
    busy_ns_.assign(replicas_, 0);
    queues_.resize(replicas_);
    ep_ = epoll_create1(EPOLL_CLOEXEC);
    timer_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    add(ctl_, kCtlTag, EPOLLIN);
    add(timer_, kTimerTag, EPOLLIN);
    std::string line = "ports";
    for (size_t r = 0; r < replicas_; ++r) {
      int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      int one = 1;
      setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      socklen_t len = sizeof(addr);
      if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
          listen(fd, 128) != 0 ||
          getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
        throw std::runtime_error("stub listen failed");
      }
      listeners_.push_back(fd);
      add(fd, kListenTag + r, EPOLLIN);
      line += " " + std::to_string(ntohs(addr.sin_port));
    }
    write_all(ctl_, line + "\n");
  }

  void run() {
    epoll_event events[64];
    for (;;) {
      int n = epoll_wait(ep_, events, 64, -1);
      if (n < 0 && errno != EINTR) return;
      int64_t now = now_ns();
      for (int i = 0; i < n; ++i) {
        uint64_t tag = events[i].data.u64;
        if (tag == kCtlTag) {
          if (!on_control()) return;
        } else if (tag == kTimerTag) {
          uint64_t expirations;
          ssize_t r = read(timer_, &expirations, sizeof(expirations));
          (void)r;
        } else if (tag < kConnTagBase) {
          accept_all(tag - kListenTag);
        } else {
          on_conn(tag, events[i].events, now);
        }
      }
      emit_due(now_ns());
      flush_dirty();
      arm_timer();
    }
  }

 private:
  void add(int fd, uint64_t tag, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = tag;
    epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
  }

  bool on_control() {
    char cmd;
    ssize_t n = read(ctl_, &cmd, 1);
    if (n <= 0) return false;
    if (cmd == 'S') {
      std::string line = "stats";
      for (size_t r = 0; r < replicas_; ++r) {
        line += " " + std::to_string(calls_[r]) + " " + std::to_string(busy_ns_[r]);
      }
      write_all(ctl_, line + "\n");
    } else if (cmd == 'T') {
      tracing_ = true;
      write_all(ctl_, "ok\n");
    } else if (cmd == 'Q') {
      std::string out;
      append_spans(spans_, out);
      write_all(ctl_, out);
      return false;
    }
    return true;
  }

  void accept_all(size_t replica) {
    for (;;) {
      int fd = accept4(listeners_[replica], nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      uint64_t id = kConnTagBase + next_conn_++;
      Conn& c = conns_[id];
      c.fd = fd;
      c.replica = replica;
      add(fd, id, EPOLLIN);
    }
  }

  void on_conn(uint64_t id, uint32_t events, int64_t now) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn& c = it->second;
    if (events & EPOLLOUT) dirty_.push_back(id);
    if (!(events & (EPOLLIN | EPOLLHUP | EPOLLERR))) return;
    char buf[65536];
    for (;;) {
      ssize_t n = read(c.fd, buf, sizeof(buf));
      if (n > 0) {
        c.in.append(buf, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
      close_conn(id);
      return;
    }
    size_t off = 0;
    for (;;) {
      size_t end = c.in.find("\r\n\r\n", off);
      if (end == std::string::npos) break;
      std::string_view head(c.in.data() + off, end - off);
      off = end + 4;
      on_request(id, c.replica, head, now);
    }
    c.in.erase(0, off);
  }

  void on_request(uint64_t conn, size_t replica, std::string_view head, int64_t now) {
    Pending p;
    p.arrival = now;
    p.conn = conn;
    size_t sp1 = head.find(' ');
    size_t sp2 = sp1 == std::string_view::npos ? sp1 : head.find(' ', sp1 + 1);
    p.ok = sp2 != std::string_view::npos &&
           parse_query(head.substr(sp1 + 1, sp2 - sp1 - 1), p.key, p.bytes);
    ++calls_[replica];
    double mult = (replicas_ > 1 && replica + 1 == replicas_) ? config_.slow_mult : 1.0;
    int64_t svc = static_cast<int64_t>(config_.svc_us * 1000.0 * mult);
    if (svc <= 0) {
      p.ready = now;
      respond(p, now);
      return;
    }
    int64_t begin = std::max(now, busy_until_[replica]);
    busy_until_[replica] = begin + svc;
    busy_ns_[replica] += svc;
    p.ready = busy_until_[replica];
    queues_[replica].push_back(p);
  }

  void respond(const Pending& p, int64_t now) {
    auto it = conns_.find(p.conn);
    if (it == conns_.end()) return;
    Conn& c = it->second;
    char head[96];
    if (p.ok) {
      int len = std::snprintf(head, sizeof(head),
                              "HTTP/1.1 200 OK\r\nContent-Length: %zu\r\n\r\n", p.bytes);
      c.out.append(head, static_cast<size_t>(len));
      append_body(p.key, p.bytes, c.out);
    } else {
      c.out.append("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
    }
    dirty_.push_back(p.conn);
    if (tracing_) spans_.push_back(Span{p.key, p.arrival, now});
  }

  void emit_due(int64_t now) {
    for (auto& q : queues_) {
      while (!q.empty() && q.front().ready <= now) {
        respond(q.front(), now);
        q.pop_front();
      }
    }
  }

  void flush_dirty() {
    for (uint64_t id : dirty_) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn& c = it->second;
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
        ev.data.u64 = id;
        epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
        c.watching_out = want_out;
      }
    }
    dirty_.clear();
  }

  void arm_timer() {
    int64_t next = 0;
    for (const auto& q : queues_) {
      if (!q.empty() && (next == 0 || q.front().ready < next)) next = q.front().ready;
    }
    if (next == armed_) return;
    itimerspec its{};
    if (next != 0) {
      its.it_value.tv_sec = next / 1000000000;
      its.it_value.tv_nsec = next % 1000000000;
    }
    timerfd_settime(timer_, TFD_TIMER_ABSTIME, &its, nullptr);
    armed_ = next;
  }

  void close_conn(uint64_t id) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    epoll_ctl(ep_, EPOLL_CTL_DEL, it->second.fd, nullptr);
    close(it->second.fd);
    conns_.erase(it);
  }

  StubConfig config_;
  int ctl_;
  size_t replicas_ = 1;
  int ep_ = -1;
  int timer_ = -1;
  int64_t armed_ = 0;
  bool tracing_ = false;
  uint64_t next_conn_ = 0;
  std::vector<int> listeners_;
  std::vector<int64_t> busy_until_;
  std::vector<uint64_t> calls_;
  std::vector<int64_t> busy_ns_;
  std::vector<std::deque<Pending>> queues_;
  std::unordered_map<uint64_t, Conn> conns_;
  std::vector<uint64_t> dirty_;
  std::vector<Span> spans_;
};

std::vector<std::string> split(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

}  // namespace

Stub::Stub(const StubConfig& config) {
  child_ = fork_child([config](int ctl) {
    pin_to(config.cpus);
    prctl(PR_SET_TIMERSLACK, 1);
    StubServer server(config, ctl);
    server.run();
  });
  std::string line;
  if (!read_line(child_.ctl, line, 10000)) {
    reap(child_);
    throw std::runtime_error("stub did not start");
  }
  auto tok = split(line);
  for (size_t i = 1; i < tok.size(); ++i) {
    ports_.push_back(static_cast<uint16_t>(std::stoul(tok[i])));
  }
}

Stub::~Stub() { reap(child_); }

uint64_t Stub::Stats::total_calls() const {
  uint64_t t = 0;
  for (uint64_t c : calls) t += c;
  return t;
}

Stub::Stats Stub::stats() {
  write_all(child_.ctl, "S");
  std::string line;
  if (!read_line(child_.ctl, line, 10000)) throw std::runtime_error("stub stats timed out");
  auto tok = split(line);
  Stats s;
  for (size_t i = 1; i + 1 < tok.size(); i += 2) {
    s.calls.push_back(std::stoull(tok[i]));
    s.busy_ns.push_back(std::stoll(tok[i + 1]));
  }
  return s;
}

void Stub::trace_on() {
  write_all(child_.ctl, "T");
  std::string line;
  if (!read_line(child_.ctl, line, 10000)) throw std::runtime_error("stub trace timed out");
}

std::vector<Span> Stub::finish() {
  std::istringstream in(finish_child(child_));
  return read_spans(in);
}

}  // namespace perfbench
