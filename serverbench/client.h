// Closed-loop line-protocol client: one TCP connection, one command in
// flight, each reply framed by the echo line and the command's reply shape.

#ifndef SERVERBENCH_CLIENT_H_
#define SERVERBENCH_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace serverbench {

class Client {
 public:
  enum class Status {
    kOk,
    kError,    // the server answered "error: ..."
    kFraming,  // the reply did not have the command's shape
    kLost,     // the connection failed or closed
  };
  struct Reply {
    Status status = Status::kLost;
    std::string body;  // REPORT: the rendered table; otherwise the reply line
    size_t bytes = 0;  // bytes of the whole response, echo line included
  };

  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Connects to 127.0.0.1:port with TCP_NODELAY; false on failure.
  bool Connect(uint16_t port);

  /// Sends one protocol line and reads its whole response.
  Reply Execute(const std::string& line);

 private:
  bool Fill();
  bool ReadLine(std::string* line);
  bool ReadThrough(const std::string& terminator, std::string* text);

  int fd_ = -1;
  std::string buffer_;
  size_t pos_ = 0;  // start of unread bytes in buffer_
};

}  // namespace serverbench

#endif  // SERVERBENCH_CLIENT_H_
