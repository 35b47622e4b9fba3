// The benchmark's load driver: one thread, an open loop over a few
// pipelined gbx-wire connections. Request i is due at start + i / rate
// whatever happened to earlier requests, and its latency is measured from
// that due time, so a server stall is charged to every request it
// delays. The driver also records how late it sent each request against
// its schedule, which tells whether a run measured the server or the
// driver.
#ifndef GBXBENCH_CLIENT_H_
#define GBXBENCH_CLIENT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace gbxbench {

/// One prepared predict request and the label the in-process classifier
/// gives the same query.
struct Query {
  std::string payload;
  std::string frame;  // the payload, length-prefixed for the wire
  int expected = -1;
};

enum class Outcome : std::uint8_t {
  kPending,
  kOk,
  kWrongLabel,  // "ok" with a label other than the in-process one
  kShed,        // "error UNAVAILABLE"
  kDeadline,    // "error DEADLINE_EXCEEDED"
  kError,       // any other error reply
  kTransport,   // connection failure, or no reply before the drain limit
};

struct Record {
  double due = 0.0;   // scheduled send time (Now() seconds)
  double sent = 0.0;  // when the frame was handed to the socket
  double done = 0.0;  // when the reply was decoded
  Outcome outcome = Outcome::kPending;
};

class OpenLoopClient {
 public:
  OpenLoopClient() = default;
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Opens `connections` nonblocking connections to 127.0.0.1:port.
  gbx::Status Connect(int port, int connections);

  /// Sends `count` requests at `rate` per second, the first due at
  /// `start`, request i carrying queries[(offset + i) % queries.size()]
  /// on connection i % connections. Returns once every request has a
  /// reply, or `drain_limit_s` after the last one was due; requests still
  /// unanswered then are kTransport.
  std::vector<Record> Run(double rate, double start, std::int64_t count,
                          const std::vector<Query>& queries,
                          std::size_t offset, double drain_limit_s);

 private:
  struct Conn {
    int fd = -1;
    gbx::FrameDecoder decoder;
    std::string out;          // encoded frames not yet written
    std::size_t out_pos = 0;  // bytes of `out` already written
    std::deque<std::int64_t> inflight;  // request indices, send order
    bool broken = false;
  };

  void Flush(Conn* c);
  void Fail(Conn* c, std::vector<Record>* records);

  std::vector<Conn> conns_;
};

}  // namespace gbxbench

#endif  // GBXBENCH_CLIENT_H_
