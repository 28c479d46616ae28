#include "service/net/fd_stream.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <cerrno>

#include "util/fault_injector.h"

// MSG_NOSIGNAL is POSIX.1-2008 but spelled differently on some BSDs;
// falling back to 0 only re-enables SIGPIPE, which the server main also
// ignores process-wide.
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace shapcq {

FdStreamBuf::FdStreamBuf(int fd, int io_timeout_ms)
    : fd_(fd), io_timeout_ms_(io_timeout_ms), in_buf_(kBufferBytes),
      out_buf_(kBufferBytes) {
  // Empty get area (first read underflows); full put area.
  setg(in_buf_.data(), in_buf_.data(), in_buf_.data());
  setp(out_buf_.data(), out_buf_.data() + out_buf_.size());
}

FdStreamBuf::~FdStreamBuf() {
  FlushOut();  // best-effort: the final command's output reaches the peer
}

FdStreamBuf::int_type FdStreamBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  while (true) {
    if (io_timeout_ms_ >= 0) {
      // Bounded wait for the peer: a poll that expires with nothing to
      // read is the dead-peer/slow-loris signal — latch it and end the
      // stream. POLLHUP/POLLERR fall through to recv, which reports the
      // close/reset the ordinary way.
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int ready = ::poll(&pfd, 1, io_timeout_ms_);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return traits_type::eof();
      }
      if (ready == 0) {
        timed_out_ = 1;
        return traits_type::eof();
      }
    }
    if (FaultInjector::Global().NetEintrThisRecv()) {
      // Chaos: this recv "was interrupted" — the retry loop must absorb
      // it without dropping or duplicating bytes.
      errno = EINTR;
      continue;
    }
    const ssize_t n = ::recv(fd_, in_buf_.data(), in_buf_.size(), 0);
    if (n > 0) {
      setg(in_buf_.data(), in_buf_.data(), in_buf_.data() + n);
      return traits_type::to_int_type(*gptr());
    }
    if (n == 0) return traits_type::eof();  // orderly close (or SHUT_RD)
    if (errno == EINTR) continue;
    return traits_type::eof();  // reset/teardown: same as EOF to the loop
  }
}

bool FdStreamBuf::FlushOut() {
  const char* data = pbase();
  size_t remaining = static_cast<size_t>(pptr() - pbase());
  while (remaining > 0 && !write_failed_) {
    FaultInjector& fault = FaultInjector::Global();
    if (fault.NetDropThisSend()) {
      // Chaos: the peer vanishes mid-response — transmit half, then fail
      // hard. The latch drops the rest (and all later output), exactly
      // like a real ECONNRESET halfway through a table.
      const size_t half = remaining / 2;
      if (half > 0) (void)::send(fd_, data, half, MSG_NOSIGNAL);
      write_failed_ = true;
      break;
    }
    size_t len = remaining;
    const size_t cap = fault.NetSendCap(len);
    if (cap > 0 && cap < len) len = cap;
    const ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL);
    if (n >= 0) {
      data += n;
      remaining -= static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    write_failed_ = true;  // peer gone; drop this and all later output
  }
  setp(out_buf_.data(), out_buf_.data() + out_buf_.size());
  return !write_failed_;
}

FdStreamBuf::int_type FdStreamBuf::overflow(int_type ch) {
  if (!FlushOut()) return traits_type::eof();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int FdStreamBuf::sync() { return FlushOut() ? 0 : -1; }

}  // namespace shapcq
