#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace perfbench {

namespace {
constexpr int kStartTimeoutMs = 60000;
}

ctdb::Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path) {
  int out[2];
  if (pipe2(out, O_CLOEXEC) != 0) return ctdb::Status::Unavailable("pipe failed");
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    close(out[0]);
    close(out[1]);
    return ctdb::Status::Unavailable("cannot open " + log_path);
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    close(out[0]);
    close(out[1]);
    close(log_fd);
    return ctdb::Status::Unavailable("fork failed");
  }
  if (pid == 0) {
    dup2(out[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    // Leave no inherited descriptor (client sockets, other servers'
    // pipes) open in the child.
    for (int fd = STDERR_FILENO + 1; fd < 4096; ++fd) close(fd);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(out[1]);
  close(log_fd);
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid, out[0]));

  // Read the first stdout line: "listening on <host>:<port>".
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kStartTimeoutMs);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return ctdb::Status::Unavailable("server start timed out");
    pollfd pfd{server->stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left)) < 0 && errno != EINTR) {
      return ctdb::Status::Unavailable("poll failed");
    }
    char buf[256];
    const ssize_t n = read(server->stdout_fd_, buf, sizeof(buf));
    if (n == 0) {
      return ctdb::Status::Unavailable("server exited before listening (see " +
                                   log_path + ")");
    }
    if (n > 0) line.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = line.rfind(':', line.find('\n'));
  if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
    return ctdb::Status::Unavailable("unexpected server banner: " + line);
  }
  server->port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
  return server;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

double ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

ctdb::Status ServerProcess::Stop() {
  if (pid_ <= 0) return ctdb::Status::OK();
  kill(pid_, SIGTERM);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return ctdb::Status::Unavailable("server did not shut down cleanly");
  }
  return ctdb::Status::OK();
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
