// A std::streambuf over a connected socket: the glue that lets the
// line-protocol CommandLoop — written against std::istream/std::ostream —
// serve a TCP connection unchanged.
//
// Reads recv() into a fixed get area; writes buffer into a fixed put area
// and send() on flush (CommandLoop flushes after every command, so clients
// see each command's output promptly). EINTR on either syscall is retried
// internally; a peer that disappears surfaces as EOF on the read side and
// as a sticky write_failed() on the write side (sends use MSG_NOSIGNAL, so
// a dead peer never raises SIGPIPE — the loop keeps executing until it
// reads EOF, exactly like a script whose output pipe closed).
//
// Timeouts: with io_timeout_ms >= 0 every read waits at most that long for
// bytes (poll(POLLIN) before recv); expiry latches timed_out() and surfaces
// as EOF, so the connection loop unwinds through its ordinary
// end-of-stream path — the dead-peer/slow-loris reap is just "the stream
// ended". The latch tells the server to count the reap, and doubles as
// the command loop's stop flag: a line the timeout cut short is dropped,
// never run, where an orderly EOF still runs an unterminated last line.
//
// Chaos: both syscalls consult the process-wide FaultInjector
// (util/fault_injector.h) — net_short_write caps sends at one byte,
// net_drop_mid_response kills a chosen send halfway, net_eintr_recv fails
// reads with EINTR — so tests/server_chaos.py can drive the retry and
// teardown paths deterministically. Disarmed, each hook is one relaxed
// atomic load.
//
// The buffer does not own the fd: the connection handler closes it after
// the stream is destroyed. Not thread-safe; one connection, one thread.

#ifndef SHAPCQ_SERVICE_NET_FD_STREAM_H_
#define SHAPCQ_SERVICE_NET_FD_STREAM_H_

#include <csignal>
#include <cstddef>
#include <streambuf>
#include <vector>

namespace shapcq {

class FdStreamBuf : public std::streambuf {
 public:
  /// Wraps a connected socket fd (borrowed, not owned). io_timeout_ms is
  /// the longest a read will wait for the peer to send anything; < 0
  /// waits forever (the default, and the pre-timeout behavior).
  explicit FdStreamBuf(int fd, int io_timeout_ms = -1);
  ~FdStreamBuf() override;
  FdStreamBuf(const FdStreamBuf&) = delete;
  FdStreamBuf& operator=(const FdStreamBuf&) = delete;

  /// True once any send() failed (peer gone); later writes are dropped.
  bool write_failed() const { return write_failed_; }

  /// Set once a read waited io_timeout_ms without the peer sending a byte
  /// (that read returned EOF and ended the connection loop). Shaped as a
  /// stop flag for CommandLoop::Run, which then drops a partial line.
  const volatile std::sig_atomic_t* timed_out() const { return &timed_out_; }

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  /// Sends the put area, retrying partial sends and EINTR. Returns false
  /// (and latches write_failed_) on an unrecoverable send error.
  bool FlushOut();

  static constexpr size_t kBufferBytes = 8192;

  int fd_;
  int io_timeout_ms_;
  std::vector<char> in_buf_;
  std::vector<char> out_buf_;
  bool write_failed_ = false;
  volatile std::sig_atomic_t timed_out_ = 0;
};

}  // namespace shapcq

#endif  // SHAPCQ_SERVICE_NET_FD_STREAM_H_
