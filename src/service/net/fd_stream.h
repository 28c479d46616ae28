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
// ended", with the latch telling the server to count it.
//
// Chaos: both syscalls consult the process-wide FaultInjector
// (util/fault_injector.h) — net_short_write caps sends at one byte,
// net_drop_mid_response kills a chosen send halfway, net_eintr_recv fails
// reads with EINTR — so tests/server_chaos.py can drive the retry and
// teardown paths deterministically. Disarmed, each hook is one relaxed
// atomic load.
//
// The buffer does not own the fd: the connection handler closes it after
// the stream is destroyed. Not thread-safe; one connection, one thread —
// except the activity clock, an atomic the idle watchdog reads
// concurrently.

#ifndef SHAPCQ_SERVICE_NET_FD_STREAM_H_
#define SHAPCQ_SERVICE_NET_FD_STREAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
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

  /// True once a read waited io_timeout_ms without the peer sending a
  /// byte (that read returned EOF and ended the connection loop).
  bool timed_out() const { return timed_out_; }

  /// Points the activity clock at a server-owned atomic (milliseconds on
  /// the server's steady clock) that means "waiting for the peer since":
  /// a read that must wait stamps the current time, and a recv that
  /// returns bytes stamps the far future, so the idle watchdog never
  /// counts a running command or a response being sent as idle. Null (the
  /// default) disables stamping.
  void SetActivityClock(std::atomic<int64_t>* last_activity_ms) {
    last_activity_ms_ = last_activity_ms;
  }

  /// Milliseconds on the steady clock the activity stamps use (shared with
  /// the idle watchdog so the two always compare like for like).
  static int64_t NowMillis();

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  /// Sends the put area, retrying partial sends and EINTR. Returns false
  /// (and latches write_failed_) on an unrecoverable send error.
  bool FlushOut();

  void StampActivity(int64_t ms);

  static constexpr size_t kBufferBytes = 8192;

  int fd_;
  int io_timeout_ms_;
  std::vector<char> in_buf_;
  std::vector<char> out_buf_;
  bool write_failed_ = false;
  bool timed_out_ = false;
  std::atomic<int64_t>* last_activity_ms_ = nullptr;
};

}  // namespace shapcq

#endif  // SHAPCQ_SERVICE_NET_FD_STREAM_H_
