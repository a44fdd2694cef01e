// serve_daemon — the always-on thermal service as a network daemon.
//
//   serve_daemon --listen HOST:PORT|unix:PATH
//                [--workers N] [--max-inflight N]
//                [--queue-workers N] [--max-batch N]
//                [--model-pool N] [--rom-cache N]
//
// Listens on the endpoint (port 0 = ephemeral), prints the bound endpoint
// as `listening ENDPOINT` on stdout (scripts parse this line), and serves
// framed envelope requests (src/serve/net/) until SIGTERM or SIGINT.
//
// Shutdown is a graceful drain: stop accepting connections, answer every
// new request `shutting-down`, finish the admitted in-flight requests,
// print the final counters, exit 0.  Clients in the middle of a burst see
// answers for admitted work and typed rejections for the rest — never a
// hang and never a torn reply (the drain-smoke CI job locks this in).
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <iostream>

#include "common/error.hpp"
#include "common/flags.hpp"
#include "obs/metrics.hpp"
#include "serve/net/server.hpp"
#include "serve/service.hpp"

namespace {

using namespace liquid3d;

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int usage() {
  std::cerr << "usage: serve_daemon --listen HOST:PORT|unix:PATH\n"
            << "         [--workers N] [--max-inflight N] [--queue-workers N]\n"
            << "         [--max-batch N] [--model-pool N] [--rom-cache N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  liquid3d::obs::init_from_env();
  std::string listen_spec;
  ServerParams server_params;
  ServeParams serve_params;

  FlagSet flags("serve_daemon");
  flags.text("--listen", &listen_spec);
  flags.number("--workers", &server_params.workers);
  flags.number("--max-inflight", &server_params.max_inflight);
  flags.number("--queue-workers", &serve_params.queue.workers);
  flags.number("--max-batch", &serve_params.queue.max_batch);
  flags.number("--model-pool", &serve_params.model_pool_capacity);
  flags.number("--rom-cache", &serve_params.rom_cache_capacity);

  try {
    flags.parse(argc - 1, argv + 1);
    if (listen_spec.empty()) return usage();
    const Endpoint endpoint = parse_endpoint(listen_spec, "--listen");

    if (::pipe(g_signal_pipe) != 0) {
      std::cerr << "serve_daemon: pipe() failed\n";
      return 2;
    }
    struct sigaction sa = {};
    sa.sa_handler = on_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    ThermalService service(serve_params);
    ServeServer server(service, server_params);
    server.start(endpoint);
    std::printf("listening %s\n", to_string(server.endpoint()).c_str());
    std::fflush(stdout);

    // Park until a signal arrives; the server's own threads do the work.
    for (;;) {
      pollfd pfd = {g_signal_pipe[0], POLLIN, 0};
      if (::poll(&pfd, 1, -1) > 0) break;
    }

    std::printf("draining\n");
    std::fflush(stdout);
    server.drain();
    const ServeStats s = server.stats();
    server.stop();
    std::printf("drained accepted=%zu rejected=%zu timed_out=%zu hwm=%zu\n",
                s.wire_accepted, s.wire_rejected, s.wire_timed_out,
                s.wire_queue_hwm);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "serve_daemon: " << e.what() << "\n";
    return 2;
  }
}
