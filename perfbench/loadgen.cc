#include "loadgen.h"

#include <sched.h>

#include <algorithm>
#include <thread>

#include "common.h"
#include "net/client.h"

namespace perfbench {
namespace {

void SleepUntilUs(double target_us) {
  while (true) {
    const double now = NowUs();
    if (now >= target_us) return;
    const double wait = target_us - now;
    if (wait > 200.0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(wait - 100.0)));
    }
  }
}

void RunConnection(const LoadSpec& spec, size_t conn, double start_us,
                   hopi::net::BlockingHttpClient* client,
                   std::vector<Record>* out) {
  const double deadline_us = start_us + spec.seconds * 1e6;
  for (size_t seq = 0;; ++seq) {
    const size_t id = seq * spec.connections + conn;
    Record r;
    r.id = id;
    double scheduled = 0.0;
    if (spec.rate > 0.0) {
      scheduled = start_us + static_cast<double>(id) / spec.rate * 1e6;
      if (scheduled >= deadline_us) break;
      SleepUntilUs(scheduled);
    } else {
      const bool whole = spec.cycle == 0 || seq % spec.cycle == 0;
      if (NowUs() >= deadline_us && whole) break;
    }
    const std::string& body = spec.body(id);
    if (!client->connected() &&
        !client->Connect("127.0.0.1", spec.port).ok()) {
      r.status = 0;
    }
    const double sent = NowUs();
    if (spec.rate <= 0.0) scheduled = sent;
    if (client->connected()) {
      auto response = client->Request("POST", spec.target, body);
      if (response.ok()) {
        r.status = response.value().status;
        r.body = std::move(response.value().body);
      } else {
        client->Close();
      }
    }
    const double done = NowUs();
    r.scheduled_us = scheduled - start_us;
    r.sent_us = sent - start_us;
    r.done_us = done - start_us;
    out->push_back(std::move(r));
  }
}

}  // namespace

Phase RunLoad(const LoadSpec& spec) {
  std::vector<hopi::net::BlockingHttpClient> clients(spec.connections);
  for (auto& client : clients) {
    (void)client.Connect("127.0.0.1", spec.port);
  }
  std::vector<std::vector<Record>> per_conn(spec.connections);
  const double start_us = NowUs() + 1000.0;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.connections; ++c) {
    threads.emplace_back([&, c] {
      if (spec.cpu >= 0) PinToCpu(spec.cpu);
      RunConnection(spec, c, start_us, &clients[c], &per_conn[c]);
    });
  }
  for (auto& t : threads) t.join();
  Phase phase;
  for (auto& records : per_conn) {
    for (auto& r : records) {
      phase.elapsed_s = std::max(phase.elapsed_s, r.done_us / 1e6);
      phase.records.push_back(std::move(r));
    }
  }
  std::sort(phase.records.begin(), phase.records.end(),
            [](const Record& a, const Record& b) { return a.id < b.id; });
  return phase;
}

void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

std::string HttpRequestBytes(const std::string& target,
                             const std::string& body) {
  return "POST " + target +
         " HTTP/1.1\r\nhost: hopi\r\ncontent-type: application/json\r\n"
         "content-length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

}  // namespace perfbench
