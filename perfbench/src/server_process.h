// A ctdb_server child process: spawn, scrape its port, measure its peak
// RSS, drain it with SIGTERM, and always reap it.

#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/result.h"

namespace perfbench {

class ServerProcess {
 public:
  /// Starts `binary` with `args`, its stderr appended to `log_path`, and
  /// waits for the "listening on <host>:<port>" line.
  static ctdb::Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path);

  /// Kills (SIGKILL) and reaps the child if Stop was not called.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  /// Peak resident set size (VmHWM) in MiB; 0 when unreadable.
  double PeakRssMb() const;
  /// Graceful drain: SIGTERM, then wait for exit. Error unless the server
  /// exited with status 0.
  ctdb::Status Stop();

 private:
  ServerProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// Total size in bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench
