#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace serverbench {

namespace {

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    return false;
  }
  // Commands are small and each waits for its reply: never let Nagle hold
  // one back on the client side.
  const int one = 1;
  return ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

bool Client::Fill() {
  if (pos_ > 0 && pos_ * 2 >= buffer_.size()) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  char chunk[1 << 16];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

bool Client::ReadLine(std::string* line) {
  return ReadThrough("\n", line);
}

// Consumes everything up to and including the first occurrence of
// `terminator` that starts a line (or any occurrence of "\n"), so a table
// row can never be mistaken for the end marker.
bool Client::ReadThrough(const std::string& terminator, std::string* text) {
  size_t searched = 0;  // unread bytes already ruled out (Fill moves pos_)
  while (true) {
    const size_t found = buffer_.find(terminator, pos_ + searched);
    if (found == std::string::npos) {
      // Keep the tail: a terminator may straddle two reads.
      const size_t unread = buffer_.size() - pos_;
      searched = unread >= terminator.size() ? unread - terminator.size() + 1
                                             : 0;
      if (!Fill()) return false;
      continue;
    }
    if (terminator == "\n" || found == pos_ || buffer_[found - 1] == '\n') {
      const size_t end = found + terminator.size();
      text->assign(buffer_, pos_, end - pos_);
      pos_ = end;
      return true;
    }
    searched = found + 1 - pos_;
  }
}

Client::Reply Client::Execute(const std::string& line) {
  Reply reply;
  const std::string message = line + "\n";
  size_t sent = 0;
  while (sent < message.size()) {
    const ssize_t n = ::send(fd_, message.data() + sent, message.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return reply;  // kLost
    sent += static_cast<size_t>(n);
  }

  std::string echo, first;
  if (!ReadLine(&echo) || !ReadLine(&first)) return reply;
  reply.bytes = echo.size() + first.size();
  reply.status = Status::kFraming;
  if (echo != "> " + line + "\n") return reply;
  if (StartsWith(first, "error: ")) {
    reply.status = Status::kError;
    reply.body = first;
    return reply;
  }

  const size_t space = line.find(' ');
  const std::string command = line.substr(0, space);
  const size_t id_end = line.find(' ', space + 1);
  const std::string id = line.substr(space + 1, id_end - space - 1);
  if (command == "REPORT") {
    if (!StartsWith(first, "report " + id + " ")) return reply;
    if (!ReadThrough("end report " + id + "\n", &reply.body)) {
      reply.status = Status::kLost;
      return reply;
    }
    reply.bytes += reply.body.size();
    reply.body.resize(reply.body.size() - ("end report " + id + "\n").size());
  } else {
    const std::string expected =
        command == "DELTA" ? "ok delta " + id + " "
        : command == "OPEN" ? "ok open " + id
                            : "stats ";
    if (!StartsWith(first, expected)) return reply;
    reply.body = first;
  }
  reply.status = Status::kOk;
  return reply;
}

}  // namespace serverbench
