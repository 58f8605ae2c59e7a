#include "bench.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "net/frame.h"

namespace perfbench {
namespace {

// Why each mix exists is recorded in BENCHMARK.json; the per-layer metrics
// each one should move are in layers.json.
const Mix kMixes[] = {
    // Closed loop over a Zipf working set that fits the cache: nearly every
    // request takes the arena fast path.
    {"hit-fastpath", /*tier=*/false, /*open_loop=*/false, /*window=*/16,
     /*rate=*/0, /*step_at=*/0, /*step_rate=*/0, /*body_bytes=*/32,
     /*keys=*/50000, /*zipf=*/0.99, /*hot_share=*/0, /*hot_keys=*/0,
     /*deadline_ms=*/1000, /*replicas=*/1, /*svc_us=*/0, /*slow_mult=*/1,
     /*cache_capacity=*/65536, /*cache_ttl=*/3600, /*swr_grace=*/0,
     /*threshold=*/100000, /*aimd_lifo=*/false, /*dispatch_window=*/0,
     /*warmup=*/100000},
    // Open loop, uniform keys over 10^6 objects: every request misses and
    // crosses admission, the balancer and the pipelined channel.
    {"miss-channel", false, true, 0, 13500, 0, 0, 4096, 1000000, 0, 0, 0, 50,
     3, 100, 4, 4096, 3600, 0, 100000, false, 0, 1000},
    // One slow serial replica; the offered load steps from half of capacity
    // to three times it, half of it on a few dozen short-TTL hot keys.
    {"flash-crowd", false, true, 0, 500, 1.0 / 3.0, 3000, 256, 1000000, 0,
     0.5, 32, 150, 1, 2000, 1, 65536, 0.5, 0.5, 150, true, 2, 1000},
    // Two federation members, Zipf keys that fit each member's cache.
    {"tier-forward", true, true, 0, 40000, 0, 0, 32, 6000, 0.99, 0, 0, 100,
     1, 0, 1, 8192, 2.0, 0, 100000, false, 0, 2000},
};

}  // namespace

const Mix* find_mix(std::string_view name) {
  for (const Mix& m : kMixes) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

std::string mix_names() {
  std::string out;
  for (const Mix& m : kMixes) {
    if (!out.empty()) out += ",";
    out += m.name;
  }
  return out;
}

std::string query_for(uint64_t key, size_t body_bytes) {
  return "/o/" + std::to_string(key) + "/" + std::to_string(body_bytes);
}

bool parse_query(std::string_view q, uint64_t& key, size_t& body_bytes) {
  if (q.size() < 6 || q.substr(0, 3) != "/o/") return false;
  q.remove_prefix(3);
  size_t slash = q.find('/');
  if (slash == std::string_view::npos || slash == 0 || slash + 1 >= q.size()) {
    return false;
  }
  uint64_t k = 0;
  for (char c : q.substr(0, slash)) {
    if (c < '0' || c > '9') return false;
    k = k * 10 + static_cast<uint64_t>(c - '0');
  }
  uint64_t b = 0;
  for (char c : q.substr(slash + 1)) {
    if (c < '0' || c > '9' || b > (1u << 24)) return false;
    b = b * 10 + static_cast<uint64_t>(c - '0');
  }
  key = k;
  body_bytes = static_cast<size_t>(b);
  return true;
}

namespace {
/// Body byte i of key k: the key's decimal id, '|', then letters that depend
/// on both, so a body served for the wrong key never matches.
inline char body_char(uint64_t key, size_t i) {
  return static_cast<char>('a' + (key * 7 + i * 13 + (key >> 5)) % 26);
}
}  // namespace

namespace {
/// Writes "<key>|" into `buf` (at least 24 bytes); returns its length.
inline size_t body_head(uint64_t key, char* buf) {
  char* end = std::to_chars(buf, buf + 22, key).ptr;
  *end++ = '|';
  return static_cast<size_t>(end - buf);
}
}  // namespace

void append_body(uint64_t key, size_t body_bytes, std::string& out) {
  char head[24];
  size_t h = std::min(body_head(key, head), body_bytes);
  out.append(head, h);
  for (size_t i = h; i < body_bytes; ++i) out.push_back(body_char(key, i));
}

bool body_matches(uint64_t key, size_t body_bytes, std::string_view body) {
  if (body.size() != body_bytes) return false;
  char head[24];
  size_t h = std::min(body_head(key, head), body_bytes);
  if (body.substr(0, h) != std::string_view(head, h)) return false;
  for (size_t i = h; i < body_bytes; ++i) {
    if (body[i] != body_char(key, i)) return false;
  }
  return true;
}

Child fork_child(const std::function<void(int ctl)>& body) {
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() == 1) std::_Exit(1);
    close(sv[0]);
    signal(SIGPIPE, SIG_IGN);
    try {
      body(sv[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench child: %s\n", e.what());
      std::_Exit(1);
    }
    std::_Exit(0);
  }
  close(sv[1]);
  return Child{pid, sv[0]};
}

void reap(Child& child) {
  if (child.pid > 0) {
    kill(child.pid, SIGKILL);
    waitpid(child.pid, nullptr, 0);
    child.pid = -1;
  }
  if (child.ctl >= 0) {
    close(child.ctl);
    child.ctl = -1;
  }
}

std::string finish_child(Child& child) {
  write_all(child.ctl, "Q");
  std::string text;
  bool done = read_to_eof(child.ctl, text, 30000);
  reap(child);  // the child has exited when done; else this kills it
  if (!done) throw std::runtime_error("child did not finish");
  return text;
}

void append_spans(const std::vector<Span>& spans, std::string& out) {
  char buf[96];
  for (const Span& s : spans) {
    int len = std::snprintf(buf, sizeof(buf), "%llu %lld %lld\n",
                            static_cast<unsigned long long>(s.key),
                            static_cast<long long>(s.start),
                            static_cast<long long>(s.end));
    out.append(buf, static_cast<size_t>(len));
  }
}

std::vector<Span> read_spans(std::istream& in) {
  std::vector<Span> spans;
  unsigned long long key = 0;
  long long start = 0, end = 0;
  while (in >> key >> start >> end) spans.push_back(Span{key, start, end});
  return spans;
}

void pin_to(const std::vector<int>& cpus) {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n <= 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(static_cast<int>(c % n), &set);
  sched_setaffinity(0, sizeof(set), &set);
}

int64_t proc_cpu_ns(pid_t pid) {
  std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return -1;
  int64_t total = 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::string path = dir + "/" + e->d_name + "/schedstat";
    FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) continue;
    long long run = 0;
    if (std::fscanf(f, "%lld", &run) == 1) total += run;
    std::fclose(f);
  }
  closedir(d);
  return total;
}

double proc_hwm_mib(pid_t pid) {
  std::string path = "/proc/" + std::to_string(pid) + "/status";
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double out = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      out = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return out;
}

void write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t n = write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
}

bool read_line(int fd, std::string& line, int timeout_ms) {
  line.clear();
  int64_t deadline = now_ns() + static_cast<int64_t>(timeout_ms) * 1000000;
  for (;;) {
    int64_t left_ms = (deadline - now_ns()) / 1000000;
    if (left_ms <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    int rc = poll(&p, 1, static_cast<int>(left_ms));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return false;
    char c;
    ssize_t n = read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (c == '\n') return true;
    line.push_back(c);
  }
}

bool read_to_eof(int fd, std::string& out, int timeout_ms) {
  int64_t deadline = now_ns() + static_cast<int64_t>(timeout_ms) * 1000000;
  char buf[65536];
  for (;;) {
    int64_t left_ms = (deadline - now_ns()) / 1000000;
    if (left_ms <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    int rc = poll(&p, 1, static_cast<int>(left_ms));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return false;
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    if (n == 0) return true;
    out.append(buf, static_cast<size_t>(n));
  }
}

bool probe_member(uint16_t port, uint64_t key, size_t body_bytes, int timeout_ms) {
  int64_t deadline = now_ns() + static_cast<int64_t>(timeout_ms) * 1000000;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int fd = -1;
  while (now_ns() < deadline) {
    fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) break;
    close(fd);
    fd = -1;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (fd < 0) return false;
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::string query = query_for(key, body_bytes);
  sbroker::net::frame::Request req;
  req.request_id = key;
  req.qos_level = 3;
  req.deadline_ms = static_cast<uint32_t>(std::max(1, timeout_ms));
  req.query = query;
  std::string out;
  sbroker::net::frame::encode_request(req, out);
  write_all(fd, out);
  std::string in;
  bool ok = false;
  char buf[8192];
  while (now_ns() < deadline) {
    pollfd p{fd, POLLIN, 0};
    int left_ms = static_cast<int>((deadline - now_ns()) / 1000000) + 1;
    if (poll(&p, 1, left_ms) <= 0) break;
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    in.append(buf, static_cast<size_t>(n));
    sbroker::net::frame::Reply rep;
    size_t used = 0;
    auto r = sbroker::net::frame::parse_reply(in, rep, &used);
    if (r == sbroker::net::frame::ParseResult::kNeedMore) continue;
    ok = r == sbroker::net::frame::ParseResult::kFrame && rep.request_id == key &&
         (rep.fidelity == sbroker::http::Fidelity::kFull ||
          rep.fidelity == sbroker::http::Fidelity::kCached) &&
         body_matches(key, body_bytes, rep.payload);
    break;
  }
  close(fd);
  return ok;
}

uint16_t reserve_port() {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    throw std::runtime_error("reserve_port failed");
  }
  close(fd);
  return ntohs(addr.sin_port);
}


}  // namespace perfbench
