// lsdbench drive — the end-to-end load over loopback against a running
// lsd_serve, speaking the binary pipelined protocol on 4 connections
// multiplexed by one load-generator thread (run.py pins it to a core of
// its own, away from the server's).
//
// Phase 0, serial, --serial-seconds: reads one at a time on one
// connection, with every server thread moved onto the load generator's
// core, so no core idles while a request is out and the latency is the
// program's work, not the host's wake-up delay; the first second is
// untimed. Their geometric mean latency is reported, and the server's
// CPU time (--server-pid) over the timed part per read is its cost per
// read.
// Phase 1, open loop, --open-seconds: reads arrive as a Poisson process
// at --rate per second and writes at --write-rate, round-robin over the
// first connections and the last --write-conns respectively, each timed
// from its due time (so a stall also charges the requests queued behind
// it); the first second is sent but untimed. How late the load
// generator itself sent each request is reported; it busy-polls its core,
// so its own wake-ups are not timed. The timed window is cut into twenty
// segments by due time; the latency percentiles are the medians of the
// per-segment percentiles over the segments where the load generator
// kept its schedule (its core was not taken from it), when at least
// five did, so a host stall in a few segments moves neither. A run
// whose load generator fell behind or ran out of stream is marked
// invalid.
// Phase 2, closed loop, --closed-seconds: the stream continues, each
// reader keeping kWindow requests in flight while the writers, if any,
// rest; then, with writers, each writer keeping kWindow in flight while
// the readers rest. Completions inside each sub-phase give the read and
// write capacity.
//
// Checks (a failed check fails the run; it is never a slow answer):
// every answer must be OK; every golden Sec 5.2 probe must print the
// FRESHMAN / CHEAP menu; a sample of the stable reads is re-executed
// in-process on the same dataset after the load and must match byte
// for byte; every write must be acked with the tally it implies. Acked
// writes go to --writes-log for `lsdbench verify`.
//
// The server's own counters (`stats`) are read before and after the
// phases and reported as deltas.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <map>
#include <unordered_set>

#include "bench.h"
#include "server/protocol.h"
#include "server/session.h"
#include "util/random.h"

namespace lsdbench {
namespace {

constexpr int kConnections = 4;
// Requests each closed-loop connection keeps in flight.
constexpr size_t kWindow = 8;
// Requests due in the first second of the open loop are sent and
// checked but not timed: caches fill and lazy set-up finishes first.
constexpr double kWarmupSeconds = 1;
// Every 16th stable read, at most 1500, is checked in-process.
constexpr size_t kSampleEvery = 16;
constexpr size_t kMaxSamples = 1500;
// A latency segment counts when the load generator's p99 lateness in it stays
// within 2 ms; a run whose overall p99 lateness passes 50 ms fell behind.
constexpr double kMaxLateMs = 2;
constexpr double kMaxLagMs = 50;
enum Phase { kOpenLoop = 0, kReadCapacity = 1, kWriteCapacity = 2,
             kSerialWarmup = 3, kSerial = 4 };
constexpr const char* kGoldenMenu[] = {
    "1. Success with FRESHMAN instead of STUDENT",
    "2. Success with CHEAP instead of FREE"};
// How long after a phase ends outstanding answers may still arrive
// before they count as timed out.
constexpr int64_t kDrainNs = 30'000'000'000;

// What happened to one request.
struct Outcome {
  bool sent = false;
  bool answered = false;
  bool ok = false;
  int phase = 0;         // Phase it was sent in
  bool counted = false;  // completed inside its phase's measured window
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  std::string payload;   // kept for writes, errors, golden and sampled reads
};

int Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  lsd::LineReader reader(fd);
  auto greeting = lsd::ReadResponse(&reader);
  if (!greeting.ok() || !greeting->ok) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One blocking request/response on an idle binary connection.
lsd::StatusOr<std::string> Call(int fd, const std::string& line) {
  LSD_RETURN_IF_ERROR(
      lsd::WriteAll(fd, lsd::EncodeFrame(lsd::FrameType::kRequest, 0, line)));
  lsd::BinaryFrameParser parser;
  LSD_ASSIGN_OR_RETURN(lsd::BinaryFrame frame, lsd::ReadFrame(fd, &parser));
  if (frame.type != lsd::FrameType::kOk) {
    return lsd::Status::Internal("ERR " + frame.payload);
  }
  return frame.payload;
}

// Pins every thread of process `pid` to `cpus`; false if one could not be.
bool PinThreads(int pid, const cpu_set_t& cpus) {
  std::error_code ec;
  bool ok = true;
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid) + "/task", ec)) {
    const pid_t tid = std::atoi(task.path().filename().c_str());
    ok = ::sched_setaffinity(tid, sizeof(cpus), &cpus) == 0 && ok;
  }
  return ok && !ec;
}

// User + system CPU seconds `pid` has used, all threads; 0 if unknown.
double ProcessCpuSeconds(int pid) {
  if (pid <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name: state is field 3,
  // utime and stime are fields 14 and 15.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::string EncodeRequest(const Request& r, uint64_t id) {
  if (r.is_read()) {
    return lsd::EncodeFrame(lsd::FrameType::kRequest, id, r.text);
  }
  std::vector<lsd::MutationOp> ops(1);
  ops[0].retract = r.kind == 'D';
  ops[0].source = r.s;
  ops[0].relationship = r.r;
  ops[0].target = r.t;
  return lsd::EncodeFrame(lsd::FrameType::kMutation, id,
                          lsd::EncodeMutationPayload(ops));
}

// The event loop over all connections, one thread. `next(c, ...)`
// yields connection c's next request index and due time (false once c
// is done sending); it is asked whenever c's window has room, and the
// request goes out once its due time has passed.
class LoadGenerator {
 public:
  using NextFn =
      std::function<bool(int conn, size_t* index, int64_t* due_ns)>;

  LoadGenerator(const std::vector<int>& fds, const std::vector<Request>* stream,
         std::vector<Outcome>* outcomes, const std::vector<char>* sampled)
      : conns_(fds.size()),
        stream_(stream),
        outcomes_(outcomes),
        sampled_(sampled) {
    for (size_t c = 0; c < fds.size(); ++c) conns_[c].fd = fds[c];
  }

  // Sends until every connection's `next` is exhausted or `stop_ns`
  // passes, connection c keeping at most window[c] requests in flight,
  // then waits for outstanding answers until `stop_ns + kDrainNs` (later
  // ones are timeouts). Requests sent are tagged `phase`; completions in
  // [count_from_ns, stop_ns) are marked counted. False on a connection
  // failure. With `spin` it busy-polls its core between sends instead
  // of sleeping until the next request is due or an answer arrives.
  bool Run(const NextFn& next, const std::vector<size_t>& window, int phase,
           int64_t count_from_ns, int64_t stop_ns, bool spin = true) {
    for (Conn& c : conns_) c.sending = true;
    std::vector<pollfd> polls(conns_.size());
    for (;;) {
      const int64_t now = NowNs();
      bool any_inflight = false, any_sending = false;
      int64_t wait_ns = 5'000'000;
      for (size_t ci = 0; ci < conns_.size(); ++ci) {
        Conn& c = conns_[ci];
        if (c.sending && now >= stop_ns) c.sending = false;
        while (c.sending && c.inflight.size() < window[ci]) {
          if (!c.have_next) {
            c.have_next = next(static_cast<int>(ci), &c.next_index,
                               &c.next_due);
            if (!c.have_next) {
              c.sending = false;
              break;
            }
          }
          if (c.next_due > now) {
            wait_ns = std::min(wait_ns, c.next_due - now);
            break;
          }
          Outcome& o = (*outcomes_)[c.next_index];
          o.sent = true;
          o.phase = phase;
          o.due_ns = c.next_due;
          o.sent_ns = now;
          c.out += EncodeRequest((*stream_)[c.next_index], c.next_index);
          c.inflight.insert(c.next_index);
          c.have_next = false;
        }
        if (!Flush(&c)) return false;
        any_inflight = any_inflight || !c.inflight.empty();
        any_sending = any_sending || c.sending;
        polls[ci] = pollfd{c.fd,
                           static_cast<short>(POLLIN |
                                              (c.out.empty() ? 0 : POLLOUT)),
                           0};
      }
      if (!any_sending && !any_inflight) return true;
      if (!any_sending && now >= stop_ns + kDrainNs) return true;  // timeouts
      // Busy-polling, the load generator's own wake-ups and timer slack
      // are not charged to the requests it times.
      if (spin) wait_ns = 0;
      const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                        static_cast<long>(wait_ns % 1'000'000'000)};
      int rc = ::ppoll(polls.data(), polls.size(), &ts, nullptr);
      if (rc < 0 && errno != EINTR) return false;
      for (size_t ci = 0; rc > 0 && ci < conns_.size(); ++ci) {
        if ((polls[ci].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
            !Receive(&conns_[ci], count_from_ns, stop_ns)) {
          return false;
        }
      }
    }
  }

 private:
  struct Conn {
    int fd = -1;
    bool sending = false;
    bool have_next = false;
    size_t next_index = 0;
    int64_t next_due = 0;
    std::string out;
    lsd::BinaryFrameParser parser;
    std::unordered_set<uint64_t> inflight;
  };

  static bool Flush(Conn* c) {
    while (!c->out.empty()) {
      ssize_t n = ::send(c->fd, c->out.data(), c->out.size(),
                         MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      c->out.erase(0, static_cast<size_t>(n));
    }
    return true;
  }

  bool Receive(Conn* c, int64_t count_from_ns, int64_t stop_ns) {
    char buf[1 << 16];
    ssize_t n = ::recv(c->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    c->parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
    const int64_t now = NowNs();
    lsd::BinaryFrame frame;
    for (;;) {
      auto r = c->parser.Next(&frame);
      if (r == lsd::BinaryFrameParser::Result::kNeedMore) return true;
      if (r == lsd::BinaryFrameParser::Result::kError) return false;
      // An id we never sent on this connection is a protocol bug.
      if (c->inflight.erase(frame.request_id) == 0) return false;
      const size_t index = static_cast<size_t>(frame.request_id);
      Outcome& o = (*outcomes_)[index];
      o.answered = true;
      o.ok = frame.type == lsd::FrameType::kOk;
      o.done_ns = now;
      o.counted = now >= count_from_ns && now < stop_ns;
      const Request& req = (*stream_)[index];
      if (!o.ok || !req.is_read() || req.tag == "golden" ||
          (*sampled_)[index]) {
        o.payload = std::move(frame.payload);
      }
    }
  }

  std::vector<Conn> conns_;
  const std::vector<Request>* stream_;
  std::vector<Outcome>* outcomes_;
  const std::vector<char>* sampled_;
};

struct Percentiles {
  double p50 = 0, p99 = 0;
  size_t n = 0;
};

Percentiles Summarize(std::vector<double> v) {
  Percentiles p;
  p.n = v.size();
  p.p50 = SmoothQuantile(&v, 0.50);
  p.p99 = SmoothQuantile(&v, 0.99);
  return p;
}

// The medians of the segments' own p50s and p99s (empty segments
// skipped), so a host stall in a few segments moves neither; n counts
// every sample.
Percentiles SegmentMedians(const std::vector<std::vector<double>>& segments) {
  Percentiles p;
  std::vector<double> p50s, p99s;
  for (std::vector<double> v : segments) {
    if (v.empty()) continue;
    p.n += v.size();
    p50s.push_back(SmoothQuantile(&v, 0.50));
    p99s.push_back(SmoothQuantile(&v, 0.99));
  }
  p.p50 = Quantile(&p50s, 0.5);
  p.p99 = Quantile(&p99s, 0.5);
  return p;
}

std::string PercentilesJson(const Percentiles& p) {
  JsonObject o;
  o.Num("p50_ms", p.p50)
      .Num("p99_ms", p.p99)
      .Int("n", static_cast<int64_t>(p.n));
  return o.Render();
}

// The tally a one-op mutation frame answers with.
bool ParseTally(const std::string& payload, int counts[4]) {
  return std::sscanf(payload.c_str(), "added %d, present %d, removed %d, "
                                      "missing %d",
                     &counts[0], &counts[1], &counts[2], &counts[3]) == 4;
}

}  // namespace

int DriveMain(const Args& args) {
  const uint16_t port = static_cast<uint16_t>(args.Num("port", 0));
  const std::string dir = args.Str("dir");
  const double serial_s = args.Num("serial-seconds", 4);
  const double open_s = args.Num("open-seconds", 4);
  const double closed_s = args.Num("closed-seconds", 4);
  const double rate = args.Num("rate", 500);
  const double write_rate = args.Num("write-rate", 0);
  const uint64_t seed = static_cast<uint64_t>(args.Num("seed", 1));
  const std::string out_path = args.Str("out");
  const std::string writes_log = args.Str("writes-log");
  const bool seeded = args.Num("seeded", 0) != 0;
  const int write_conns = static_cast<int>(args.Num("write-conns", 0));
  const int server_pid = static_cast<int>(args.Num("server-pid", 0));
  if (port == 0 || dir.empty() || out_path.empty() || write_conns < 0 ||
      write_conns >= kConnections) {
    std::fprintf(stderr, "drive: --port P --dir DIR --out FILE [...]\n");
    return 2;
  }

  auto loaded = ReadStream(dir + "/requests.tsv");
  if (!loaded.ok()) {
    std::fprintf(stderr, "drive: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const std::vector<Request>& stream = *loaded;
  std::vector<Outcome> outcomes(stream.size());
  std::vector<char> sampled(stream.size(), 0);
  for (size_t i = 0, n = 0; i < stream.size() && n < kMaxSamples; ++i) {
    if (stream[i].is_read() && stream[i].stable && i % kSampleEvery == 0) {
      sampled[i] = 1;
      ++n;
    }
  }

  std::vector<int> fds(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    fds[c] = Connect(port);
    if (fds[c] < 0) {
      std::fprintf(stderr, "drive: cannot connect to port %u\n", port);
      return 1;
    }
  }
  auto stats_before = Call(fds[0], "stats");
  if (!stats_before.ok()) {
    std::fprintf(stderr, "drive: stats: %s\n",
                 stats_before.status().ToString().c_str());
    return 1;
  }

  lsd::Rng rng(seed * 2654435761u + 1);
  const int read_conns = kConnections - write_conns;
  auto is_reader = [&](int c) { return c < read_conns; };
  size_t read_cursor = 0, write_cursor = 0;
  bool exhausted = false;
  auto next_of_kind = [&](bool read, size_t* index) {
    size_t& cursor = read ? read_cursor : write_cursor;
    while (cursor < stream.size() && stream[cursor].is_read() != read) {
      ++cursor;
    }
    if (cursor >= stream.size()) {
      exhausted = true;
      return false;
    }
    *index = cursor++;
    return true;
  };
  bool conn_ok = true;
  LoadGenerator loadgen(fds, &stream, &outcomes, &sampled);

  // ---- Serial --------------------------------------------------------------
  // One read at a time on one connection, the server's threads moved onto
  // the load generator's core for the phase and the load generator
  // sleeping while it waits: no core idles between a request and its
  // answer, so the latency is the program's work on both sides plus
  // loopback, not how soon the host wakes an idle core. The first
  // kWarmupSeconds are untimed; the server's CPU time over the rest, per
  // read, is its cost per read.
  cpu_set_t server_cpus, own_cpus;
  if (::sched_getaffinity(server_pid, sizeof(server_cpus), &server_cpus) != 0 ||
      ::sched_getaffinity(0, sizeof(own_cpus), &own_cpus) != 0 ||
      !PinThreads(server_pid, own_cpus)) {
    std::fprintf(stderr, "drive: cannot pin the server's threads (pid %d)\n",
                 server_pid);
    return 1;
  }
  const int64_t serial_start = NowNs();
  const int64_t serial_from =
      serial_start + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t serial_end =
      serial_start + static_cast<int64_t>(serial_s * 1e9);
  const std::vector<size_t> one_in_flight = {1, 0, 0, 0};
  auto next_serial = [&](int c, size_t* index, int64_t* due_ns) {
    *due_ns = 0;
    return c == 0 && next_of_kind(true, index);
  };
  conn_ok = loadgen.Run(next_serial, one_in_flight, kSerialWarmup,
                        serial_start, serial_from, /*spin=*/false);
  const double serial_cpu_before = ProcessCpuSeconds(server_pid);
  const int64_t serial_timed_start = NowNs();
  conn_ok = conn_ok && loadgen.Run(next_serial, one_in_flight, kSerial,
                                   serial_timed_start, serial_end,
                                   /*spin=*/false);
  const double serial_cpu_s =
      ProcessCpuSeconds(server_pid) - serial_cpu_before;
  if (!PinThreads(server_pid, server_cpus)) {
    std::fprintf(stderr, "drive: cannot restore the server's cores\n");
    return 1;
  }

  // ---- Open loop -----------------------------------------------------------
  // Reads and writes arrive as two Poisson processes, at --rate and
  // --write-rate, from the seed; each takes the next request of its
  // kind from the stream. Connections [0, read_conns) carry reads, the
  // rest writes, so a read never queues behind a commit in its
  // connection's FIFO: what writes cost readers shows up as contention
  // for the server's workers and cores. Read-only workloads read on all
  // four connections.
  auto poisson = [&](double per_s, double* t) {
    *t += -std::log(1.0 - rng.NextDouble()) / per_s;
    return static_cast<int64_t>(*t * 1e9);
  };
  const int64_t open_start = NowNs() + 20'000'000;
  const int64_t open_end = open_start + static_cast<int64_t>(open_s * 1e9);
  const int64_t measure_from =
      open_start + static_cast<int64_t>(kWarmupSeconds * 1e9);
  std::vector<int64_t> due(stream.size(), 0);
  std::vector<std::vector<size_t>> queue(kConnections);
  size_t open_count = 0;
  for (bool read : {true, false}) {
    const double per_s = read ? rate : write_rate;
    if (per_s <= 0 || (!read && write_conns == 0)) continue;
    const int first = read ? 0 : read_conns;
    const int conns = read ? read_conns : write_conns;
    double t = 0;
    size_t index = 0;
    for (int k = 0;; ++k) {
      const int64_t d = open_start + poisson(per_s, &t);
      if (d >= open_end || !next_of_kind(read, &index)) break;
      due[index] = d;
      queue[first + k % conns].push_back(index);
      ++open_count;
    }
  }
  {
    std::vector<size_t> pos(kConnections, 0);
    auto next = [&](int c, size_t* index, int64_t* due_ns) {
      if (pos[c] >= queue[c].size()) return false;
      *index = queue[c][pos[c]++];
      *due_ns = due[*index];
      return true;
    };
    // No window cap: an open loop sends on schedule regardless.
    conn_ok = conn_ok &&
              loadgen.Run(next, std::vector<size_t>(kConnections, SIZE_MAX),
                          kOpenLoop, open_start, open_end + kDrainNs);
  }

  // ---- Closed loop ---------------------------------------------------------
  // The stream continues where the open loop stopped; every request is
  // sent at most once, so running out of stream marks the run invalid.
  // Read capacity: the readers keep kWindow requests in flight each
  // while the writers, if any, rest, so the capacity is the reads' own.
  // Write
  // capacity (churn): then the writers keep kWindow in flight each and
  // the readers rest.
  const double read_s = write_conns > 0 ? closed_s / 2 : closed_s;
  const int64_t read_start = NowNs();
  const int64_t read_end = read_start + static_cast<int64_t>(read_s * 1e9);
  {
    auto next = [&](int c, size_t* index, int64_t* due_ns) {
      *due_ns = 0;
      return is_reader(c) && next_of_kind(true, index);
    };
    conn_ok = conn_ok && loadgen.Run(next,
                                    std::vector<size_t>(kConnections, kWindow),
                                    kReadCapacity, read_start, read_end);
  }
  const int64_t write_start = NowNs();
  const int64_t write_end =
      write_start + static_cast<int64_t>((closed_s - read_s) * 1e9);
  if (write_conns > 0) {
    auto next = [&](int c, size_t* index, int64_t* due_ns) {
      *due_ns = 0;
      return !is_reader(c) && next_of_kind(false, index);
    };
    conn_ok = conn_ok && loadgen.Run(next,
                                    std::vector<size_t>(kConnections, kWindow),
                                    kWriteCapacity, write_start, write_end);
  }
  const double read_elapsed = static_cast<double>(read_end - read_start) / 1e9;
  const double write_elapsed =
      static_cast<double>(write_end - write_start) / 1e9;

  auto stats_after = Call(fds[0], "stats");
  for (int c = 0; c < kConnections; ++c) ::close(fds[c]);
  if (!stats_after.ok()) {
    std::fprintf(stderr, "drive: stats: %s\n",
                 stats_after.status().ToString().c_str());
    return 1;
  }

  // ---- Tally ---------------------------------------------------------------
  uint64_t attempted = 0, failed = 0, timed_out = 0;
  uint64_t closed_reads = 0, closed_writes = 0;
  // Closed-loop reads completed per tenth of the phase: the capacity
  // figure is their upper quartile, so slices the host stalled (it only
  // ever slows the server) cannot move it.
  constexpr size_t kSlices = 10;
  std::vector<double> slice_reads(kSlices, 0.0);
  // Open-loop read latencies by due-time segment of the measured window.
  constexpr size_t kSegments = 20;
  constexpr size_t kMinCleanSegments = 5;
  std::vector<std::vector<double>> read_segments(kSegments);
  std::vector<std::vector<double>> late_segments(kSegments);
  std::map<std::string, std::vector<double>> by_tag;  // open-loop reads
  std::vector<double> read_lat, write_lat, late, serial_lat;
  std::string first_error;
  size_t golden_seen = 0, golden_bad = 0, tally_bad = 0;
  std::string writes_out;
  for (size_t i = 0; i < stream.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (!o.sent) continue;
    ++attempted;
    if (!o.answered) {
      ++failed;
      ++timed_out;
      continue;
    }
    if (!o.ok) {
      ++failed;
      if (first_error.empty()) first_error = stream[i].text + ": " + o.payload;
      continue;
    }
    const Request& req = stream[i];
    if (o.counted && o.phase == kReadCapacity && req.is_read()) {
      ++closed_reads;
      const size_t slice = static_cast<size_t>(
          (o.done_ns - read_start) * kSlices / (read_end - read_start));
      if (slice < kSlices) ++slice_reads[slice];
    }
    if (o.counted && o.phase == kWriteCapacity) ++closed_writes;
    if (o.counted && o.phase == kSerial) {
      serial_lat.push_back(static_cast<double>(o.done_ns - o.sent_ns) / 1e6);
    }
    if (o.phase == kOpenLoop && o.due_ns >= measure_from) {
      const double ms = static_cast<double>(o.done_ns - o.due_ns) / 1e6;
      (req.is_read() ? read_lat : write_lat).push_back(ms);
      const size_t seg = std::min<size_t>(
          kSegments - 1, static_cast<size_t>((o.due_ns - measure_from) *
                                             kSegments /
                                             (open_end - measure_from)));
      if (req.is_read()) {
        read_segments[seg].push_back(ms);
        by_tag[req.tag].push_back(ms);
      }
      late.push_back(static_cast<double>(o.sent_ns - o.due_ns) / 1e6);
      late_segments[seg].push_back(late.back());
    }
    if (req.tag == "golden") {
      ++golden_seen;
      for (const char* line : kGoldenMenu) {
        if (o.payload.find(line) == std::string::npos) {
          ++golden_bad;
          break;
        }
      }
    }
    if (!req.is_read()) {
      int counts[4] = {0, 0, 0, 0};
      const bool parsed = ParseTally(o.payload, counts);
      const bool expected =
          parsed && (req.kind == 'A' ? counts[0] == 1
                                     : counts[2] + counts[3] == 1);
      if (!expected) ++tally_bad;
      const char* effect = !parsed ? "?" : counts[0] == 1 ? "added"
                                         : counts[2] == 1 ? "removed"
                                                          : "missing";
      writes_out += std::string(1, req.kind) + "\t" + req.s + "\t" + req.r +
                    "\t" + req.t + "\t" + effect + "\n";
    }
  }
  for (size_t i = 0; i < stream.size(); ++i) {
    // Writes that never got an answer have an unknown effect.
    const Outcome& o = outcomes[i];
    if (!stream[i].is_read() && o.sent && !o.answered) {
      writes_out += std::string(1, stream[i].kind) + "\t" + stream[i].s +
                    "\t" + stream[i].r + "\t" + stream[i].t + "\tunknown\n";
    }
  }
  if (!writes_log.empty()) {
    lsd::Status w = WriteFile(writes_log, writes_out);
    if (!w.ok()) {
      std::fprintf(stderr, "drive: %s\n", w.ToString().c_str());
      return 1;
    }
  }

  // ---- Reference check -----------------------------------------------------
  // The sampled reads again, in-process, on the dataset as loaded by the
  // server; after the load so it never competes with the measurement.
  const int64_t check_start = NowNs();
  lsd::SharedStore reference;
  lsd::Status ref = LoadReference(dir + "/data.lsd", seeded, &reference);
  size_t checked = 0, mismatched = 0;
  std::string first_mismatch;
  if (ref.ok()) {
    lsd::ServerSession session(1, &reference);
    for (size_t i = 0; i < stream.size(); ++i) {
      if (!sampled[i] || !outcomes[i].answered || !outcomes[i].ok) continue;
      auto expect = session.Execute(stream[i].text);
      ++checked;
      const std::string& got = outcomes[i].payload;
      if (!expect.ok() || *expect != got) {
        ++mismatched;
        if (first_mismatch.empty()) {
          first_mismatch = stream[i].text;
          (void)WriteFile(out_path + ".mismatch",
                          stream[i].text + "\n--- expected\n" +
                              (expect.ok() ? *expect
                                           : expect.status().ToString()) +
                              "\n--- got\n" + got);
        }
      }
    }
  }
  const double check_s = static_cast<double>(NowNs() - check_start) / 1e9;

  std::string slices_json = "[";
  std::vector<double> slice_rps;
  for (size_t k = 0; k < kSlices; ++k) {
    slice_rps.push_back(slice_reads[k] * kSlices / read_elapsed);
    slices_json += (k > 0 ? ", " : "") + std::to_string(slice_rps.back());
  }
  slices_json += "]";
  // A segment in which the load generator itself ran late (its core was taken
  // from it) says more about the host than the server: only segments
  // where the load generator kept its schedule are summarized.
  std::vector<std::vector<double>> clean;
  for (size_t k = 0; k < kSegments; ++k) {
    std::vector<double> l = late_segments[k];
    if (!read_segments[k].empty() && Quantile(&l, 0.99) <= kMaxLateMs) {
      clean.push_back(read_segments[k]);
    }
  }
  const size_t clean_segments = clean.size();
  // Too few clean segments to stand alone: all segments, pooled.
  const Percentiles reads = clean_segments >= kMinCleanSegments
                                ? SegmentMedians(clean)
                                : Summarize(read_lat);
  // The serial reads' typical latency is their geometric mean: it weighs
  // every request class by its share, where a median jumps between
  // classes as their shares move from seed to seed, and a lone stall
  // barely moves it.
  const Percentiles serial = Summarize(serial_lat);
  double log_sum = 0;
  for (double ms : serial_lat) log_sum += std::log(ms);
  const double serial_gmean =
      serial_lat.empty()
          ? 0.0
          : std::exp(log_sum / static_cast<double>(serial_lat.size()));
  JsonObject tags;
  for (auto& [tag, v] : by_tag) tags.Raw(tag, PercentilesJson(Summarize(v)));
  Percentiles writes = Summarize(write_lat);
  Percentiles lateness = Summarize(late);
  double late_max = 0;
  for (double l : late) late_max = std::max(late_max, l);
  // Falling behind: the load generator's own lag, not the host's hiccups.
  const bool valid = lateness.p99 <= kMaxLagMs && !exhausted;

  auto before = ParseStats(*stats_before);
  auto after = ParseStats(*stats_after);
  JsonObject delta;
  for (const auto& [key, value] : after) {
    if (key == "asserted_facts" || key == "derived_facts") continue;
    delta.Num(key, value - before[key]);
  }

  const bool correct = conn_ok && ref.ok() && mismatched == 0 &&
                       golden_seen > 0 && golden_bad == 0 && tally_bad == 0 &&
                       checked > 0;
  JsonObject out;
  out.Bool("correct", correct)
      .Bool("valid", valid)
      .Int("attempted", static_cast<int64_t>(attempted))
      .Int("failed", static_cast<int64_t>(failed))
      .Int("timed_out", static_cast<int64_t>(timed_out))
      .Str("first_error", first_error)
      .Int("open_requests", static_cast<int64_t>(open_count))
      .Num("offered_rate", rate)
      .Raw("read", PercentilesJson(reads))
      .Raw("read_by_verb", tags.Render())
      .Raw("write", PercentilesJson(writes))
      .Raw("lateness", PercentilesJson(lateness))
      .Num("lateness_max_ms", late_max)
      .Int("clean_segments", static_cast<int64_t>(clean_segments))
      .Int("segments", static_cast<int64_t>(kSegments))
      .Raw("serial", PercentilesJson(serial))
      .Num("serial_gmean_ms", serial_gmean)
      .Bool("stream_exhausted", exhausted)
      .Num("read_rps", Quantile(&slice_rps, 0.75))
      .Raw("read_rps_slices", slices_json)
      .Num("read_cpu_us",
           !serial_lat.empty()
               ? serial_cpu_s * 1e6 / static_cast<double>(serial_lat.size())
               : 0.0)
      .Num("write_rps", write_elapsed > 0
                            ? static_cast<double>(closed_writes) / write_elapsed
                            : 0.0)
      .Int("closed_reads", static_cast<int64_t>(closed_reads))
      .Int("closed_writes", static_cast<int64_t>(closed_writes))
      .Int("checked", static_cast<int64_t>(checked))
      .Int("mismatched", static_cast<int64_t>(mismatched))
      .Str("first_mismatch", first_mismatch)
      .Int("golden", static_cast<int64_t>(golden_seen))
      .Int("golden_bad", static_cast<int64_t>(golden_bad))
      .Int("tally_bad", static_cast<int64_t>(tally_bad))
      .Num("check_s", check_s)
      .Raw("stats_delta", delta.Render())
      .Num("asserted_facts", after["asserted_facts"])
      .Num("derived_facts", after["derived_facts"]);
  lsd::Status w = WriteFile(out_path, out.Render() + "\n");
  if (!w.ok()) {
    std::fprintf(stderr, "drive: %s\n", w.ToString().c_str());
    return 1;
  }
  return 0;
}

// lsdbench seed — loads the dataset into a durable server through its
// write path (the churn workload's set-up): the facts of DIR/data.lsd in
// file order as pipelined one-connection kMutation batches, then its
// rules as text verbs. Every batch must be acked as wholly added. Going
// through the protocol puts every fact in the WAL, so a kill -9 restart
// recovers them; `lsd_serve --load` bypasses the log.
int SeedMain(const Args& args) {
  const uint16_t port = static_cast<uint16_t>(args.Num("port", 0));
  const std::string dir = args.Str("dir");
  if (port == 0 || dir.empty()) {
    std::fprintf(stderr, "seed: --port P --dir DIR\n");
    return 2;
  }
  auto plan = ReadSeedPlan(dir + "/data.lsd", kSeedBatch);
  if (!plan.ok()) {
    std::fprintf(stderr, "seed: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> frames;
  std::vector<size_t> expect_added;
  for (size_t i = 0; i < plan->batches.size(); ++i) {
    frames.push_back(lsd::EncodeFrame(lsd::FrameType::kMutation,
                                      frames.size(), plan->batches[i]));
    expect_added.push_back(plan->batch_sizes[i]);
  }
  for (const std::string& rule : plan->rules) {
    frames.push_back(
        lsd::EncodeFrame(lsd::FrameType::kRequest, frames.size(), rule));
    expect_added.push_back(0);
  }

  const int fd = Connect(port);
  if (fd < 0) {
    std::fprintf(stderr, "seed: cannot connect to port %u\n", port);
    return 1;
  }
  std::string all;
  for (const std::string& f : frames) all += f;
  lsd::Status sent = lsd::WriteAll(fd, all);
  lsd::BinaryFrameParser parser;
  int rc = sent.ok() ? 0 : 1;
  for (size_t i = 0; rc == 0 && i < frames.size(); ++i) {
    auto frame = lsd::ReadFrame(fd, &parser);
    int counts[4] = {0, 0, 0, 0};
    if (!frame.ok() || frame->type != lsd::FrameType::kOk ||
        frame->request_id != i ||
        (expect_added[i] > 0 &&
         (!ParseTally(frame->payload, counts) ||
          static_cast<size_t>(counts[0]) != expect_added[i]))) {
      std::fprintf(stderr, "seed: request %zu not acked as expected: %s\n", i,
                   frame.ok() ? frame->payload.c_str()
                              : frame.status().ToString().c_str());
      rc = 1;
    }
  }
  ::close(fd);
  return rc;
}

}  // namespace lsdbench
