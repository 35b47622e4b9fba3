#include "client.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <ctime>

#include "trace.h"

namespace gbxbench {

namespace {

Outcome Classify(const std::string& reply, int expected) {
  if (reply.rfind("ok ", 0) == 0) {
    return std::atoi(reply.c_str() + 3) == expected ? Outcome::kOk
                                                    : Outcome::kWrongLabel;
  }
  if (reply.rfind("error UNAVAILABLE", 0) == 0) return Outcome::kShed;
  if (reply.rfind("error DEADLINE_EXCEEDED", 0) == 0) {
    return Outcome::kDeadline;
  }
  return Outcome::kError;
}

}  // namespace

OpenLoopClient::~OpenLoopClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

gbx::Status OpenLoopClient::Connect(int port, int connections) {
  for (int i = 0; i < connections; ++i) {
    gbx::StatusOr<int> fd = gbx::ConnectTcp("127.0.0.1", port);
    if (!fd.ok()) return fd.status();
    conns_.emplace_back();
    conns_.back().fd = *fd;
    const int flags = ::fcntl(*fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(*fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      return gbx::Status::Internal("fcntl O_NONBLOCK failed");
    }
  }
  return gbx::Status::Ok();
}

void OpenLoopClient::Flush(Conn* c) {
  while (!c->broken && c->out_pos < c->out.size()) {
    const ssize_t n = ::write(c->fd, c->out.data() + c->out_pos,
                              c->out.size() - c->out_pos);
    if (n > 0) {
      c->out_pos += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      c->broken = true;
    }
  }
  if (c->out_pos == c->out.size()) {
    c->out.clear();
    c->out_pos = 0;
  }
}

void OpenLoopClient::Fail(Conn* c, std::vector<Record>* records) {
  c->broken = true;
  const double now = Now();
  for (const std::int64_t i : c->inflight) {
    (*records)[i].outcome = Outcome::kTransport;
    (*records)[i].done = now;
  }
  c->inflight.clear();
}

std::vector<Record> OpenLoopClient::Run(double rate, double start,
                                        std::int64_t count,
                                        const std::vector<Query>& queries,
                                        std::size_t offset,
                                        double drain_limit_s) {
  std::vector<Record> records(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    records[i].due = start + static_cast<double>(i) / rate;
  }
  const double give_up =
      (count > 0 ? records.back().due : start) + drain_limit_s;
  const std::size_t nconn = conns_.size();
  std::vector<pollfd> pfds(nconn);
  std::int64_t next = 0;
  std::int64_t pending = 0;  // sent, not yet answered
  std::string payload, error;
  char buf[1 << 16];
  while (next < count || pending > 0) {
    double now = Now();
    if (now >= give_up) break;
    for (; next < count && records[next].due <= now; ++next) {
      Conn& c = conns_[static_cast<std::size_t>(next) % nconn];
      Record& r = records[next];
      if (c.broken) {
        r.outcome = Outcome::kTransport;
        r.sent = r.done = now;
        continue;
      }
      c.out += queries[(offset + static_cast<std::size_t>(next)) %
                       queries.size()]
                   .frame;
      c.inflight.push_back(next);
      ++pending;
      Flush(&c);
      r.sent = Now();
    }
    const auto fail = [&](Conn* c) {
      pending -= static_cast<std::int64_t>(c->inflight.size());
      Fail(c, &records);
    };
    for (Conn& c : conns_) {
      if (c.broken && !c.inflight.empty()) fail(&c);
    }
    for (std::size_t k = 0; k < nconn; ++k) {
      pfds[k].fd = conns_[k].broken ? -1 : conns_[k].fd;
      pfds[k].events = static_cast<short>(
          POLLIN | (conns_[k].out.empty() ? 0 : POLLOUT));
      pfds[k].revents = 0;
    }
    // Busy-poll rather than sleep until the next due time: on a virtual
    // machine an idle vCPU can take milliseconds to wake, which would show
    // up as generator lateness instead of server latency. Yield while
    // nothing is ready, so that a server thread woken on this CPU runs at
    // once.
    timespec ts{0, 0};
    const int rc = ::ppoll(pfds.data(), nconn, &ts, nullptr);
    if (rc <= 0) {
      ::sched_yield();
      continue;
    }
    for (std::size_t k = 0; k < nconn; ++k) {
      Conn& c = conns_[k];
      if (c.broken || pfds[k].revents == 0) continue;
      if (pfds[k].revents & POLLOUT) Flush(&c);
      if (pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) {
        for (;;) {
          const ssize_t n = ::read(c.fd, buf, sizeof(buf));
          if (n > 0) {
            c.decoder.Feed(buf, static_cast<std::size_t>(n));
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          c.broken = true;  // EOF or a hard error
          break;
        }
        const double done = Now();
        for (;;) {
          const gbx::FrameDecoder::Result res = c.decoder.Next(&payload, &error);
          if (res != gbx::FrameDecoder::Result::kFrame) {
            if (res == gbx::FrameDecoder::Result::kError) c.broken = true;
            break;
          }
          if (c.inflight.empty()) {  // a reply nobody asked for
            c.broken = true;
            break;
          }
          const std::int64_t i = c.inflight.front();
          c.inflight.pop_front();
          --pending;
          Record& r = records[i];
          r.done = done;
          r.outcome = Classify(
              payload,
              queries[(offset + static_cast<std::size_t>(i)) % queries.size()]
                  .expected);
        }
      }
      if (c.broken) fail(&c);
    }
  }
  // Whatever is still unanswered missed the drain limit.
  for (Conn& c : conns_) {
    if (!c.inflight.empty()) Fail(&c, &records);
  }
  for (Record& r : records) {
    if (r.outcome == Outcome::kPending) {
      r.outcome = Outcome::kTransport;
      r.done = Now();
    }
  }
  return records;
}

}  // namespace gbxbench
