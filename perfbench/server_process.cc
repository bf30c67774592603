#include "server_process.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sched.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common.h"
#include "net/client.h"

namespace perfbench {
namespace {

/// Asks the kernel for a free loopback port. The port is released
/// before the server binds it; nothing else on the box races for it in
/// practice, and a lost race shows up as a failed start.
uint16_t PickFreePort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  uint16_t port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

bool Healthy(uint16_t port) {
  hopi::net::BlockingHttpClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return false;
  auto response = client.Request("GET", "/healthz");
  return response.ok() && response.value().status == 200;
}

}  // namespace

hopi::Status ServerProcess::Start(const std::string& binary,
                                  const std::vector<std::string>& args,
                                  const std::string& log_path,
                                  double timeout_seconds,
                                  double* setup_seconds) {
  port_ = PickFreePort();
  if (port_ == 0) return hopi::Status::IOError("no free loopback port");
  std::vector<std::string> argv_storage = {binary,
                                           "--port=" + std::to_string(port_)};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();

  const double start_us = NowUs();
  pid_t pid = ::fork();
  if (pid < 0) return hopi::Status::IOError("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  while (true) {
    if (Healthy(port_)) break;
    int wstatus = 0;
    if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      pid_ = -1;
      return hopi::Status::Internal("hopi_serve exited during start-up; see " +
                                    log_path);
    }
    if ((NowUs() - start_us) / 1e6 > timeout_seconds) {
      Stop();
      return hopi::Status::Internal("hopi_serve not healthy in time");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  *setup_seconds = (NowUs() - start_us) / 1e6;
  return hopi::Status::OK();
}

void ServerProcess::PinTo(int cpu) const {
  if (pid_ <= 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(tasks)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(entry.path().filename().c_str(), nullptr, 10));
    ::sched_setaffinity(tid, sizeof(set), &set);
  }
}

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const double start_us = NowUs();
  int wstatus = 0;
  while (::waitpid(pid_, &wstatus, WNOHANG) == 0) {
    if (NowUs() - start_us > 10e6) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &wstatus, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
}

}  // namespace perfbench
