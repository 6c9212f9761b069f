// pcs_served: the persistent multi-tenant serving daemon.
//
// Where pcs_serve runs a config's campaigns and exits, pcs_served binds a
// Unix-domain socket and serves campaign requests until told to stop:
//
//   $ ./pcs_served --config served.cfg socket=/tmp/pcs.sock &
//   $ ./pcs_loadgen socket=/tmp/pcs.sock tenants=2 requests=8
//   $ ./pcs_loadgen socket=/tmp/pcs.sock scrape=metrics.json
//   $ kill -HUP  $!   # re-read served.cfg (validate-then-swap)
//   $ kill -TERM $!   # graceful drain, flush metrics to `out`, exit 0
//
// The config file is the same key=value format pcs_serve reads, plus the
// daemon keys: socket=, max_inflight=, tenant_quota=, cache_mb=.  Requests
// inherit any field they leave unset from this config, so a SIGHUP that
// changes `arrival_p=` retargets every later default-load campaign without
// dropping the ones in flight.
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "runtime/config.hpp"
#include "serve/daemon.hpp"
#include "util/parallel.hpp"

namespace {

pcs::serve::ServeDaemon* g_daemon = nullptr;

// Only async-signal-safe atomic stores happen here.
void on_signal(int sig) {
  if (g_daemon == nullptr) return;
  if (sig == SIGHUP) {
    g_daemon->notify_reload();
  } else {
    g_daemon->notify_stop();
  }
}

}  // namespace

int main(int argc, char** argv) {
  pcs::rt::RuntimeConfig cfg;
  std::string config_path;
  try {
    std::vector<std::string> overrides;
    for (int a = 1; a < argc; ++a) {
      const std::string arg = argv[a];
      if (arg == "--config") {
        if (a + 1 >= argc) {
          std::fprintf(stderr, "--config needs a file argument\n");
          return 2;
        }
        config_path = argv[++a];
        cfg = pcs::rt::load_config_file(config_path);
      } else if (arg == "--help" || arg == "-h") {
        std::printf("usage: pcs_served [--config FILE] [key=value ...]\n");
        return 0;
      } else {
        overrides.push_back(arg);
      }
    }
    pcs::rt::apply_overrides(cfg, overrides);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "config error: %s\n", e.what());
    return 2;
  }

  if (cfg.threads != 0) pcs::set_max_parallelism(cfg.threads);

  pcs::serve::ServeOptions opts;
  opts.socket_path = cfg.serve_socket;
  opts.config_path = config_path;  // SIGHUP re-reads this ("" disables)

  pcs::serve::ServeDaemon daemon(cfg, opts);
  g_daemon = &daemon;
  std::signal(SIGHUP, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);  // peer hangups surface as write errors

  std::printf("pcs_served: listening on %s (max_inflight=%zu tenant_quota=%zu "
              "cache_mb=%zu)\n",
              cfg.serve_socket.c_str(), cfg.serve_max_inflight,
              cfg.serve_tenant_quota, cfg.serve_cache_mb);
  std::fflush(stdout);

  const int rc = daemon.run();
  g_daemon = nullptr;
  std::printf("pcs_served: %s (exit %d), final metrics in %s\n",
              rc == 0 ? "drained" : "failed", rc, cfg.out.c_str());
  return rc;
}
