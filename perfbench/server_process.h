// ServerProcess: one hopi_serve child process — spawn, readiness by
// polling GET /healthz (the server's banner goes to a fully buffered
// stdout, so it is never waited for), peak RSS, orderly stop.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary --port=<free port> args...` with stdout/stderr
  /// appended to `log_path`, then polls /healthz until it answers 200.
  /// `*setup_seconds` is the time from just before the spawn to the
  /// first healthy answer. The child is killed if this process dies.
  hopi::Status Start(const std::string& binary,
                     const std::vector<std::string>& args,
                     const std::string& log_path, double timeout_seconds,
                     double* setup_seconds);

  /// Pins every thread of the running server to CPU `cpu` (threads it
  /// starts later inherit the mask).
  void PinTo(int cpu) const;

  uint16_t port() const { return port_; }
  bool running() const { return pid_ > 0; }

  /// VmHWM of the child in MiB (its peak resident set so far).
  double PeakRssMb() const;

  /// SIGTERM, then SIGKILL after a grace period; always reaps.
  void Stop();

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench
