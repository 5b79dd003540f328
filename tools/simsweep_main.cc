// simsweep: a seed farm. Runs one command template per seed, fanning out
// over OS processes — each seed gets a whole address space, so a crash,
// sanitizer abort or assert in one run cannot poison another, and the farm
// uses every core even though each simulator is single-threaded.
//
//   simsweep --seeds 1..200 --jobs 8 -- ./tools/simfuzz --seed {seed}
//   simsweep --seeds 50 --logdir /tmp/sweep -- ./tools/simreport --seed {seed}
//
// `{seed}` in the command is replaced per run. The command runs via
// /bin/sh, so shell syntax works. Exit status: 0 when every seed passed,
// 1 otherwise, with a per-seed pass/fail summary on stdout. With
// --logdir, each run's combined stdout+stderr lands in seed-<n>.log —
// the first thing to read when a seed fails.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <string_view>

#include "common/parse.h"
#include "common/strings.h"

namespace {

struct Args {
  std::uint64_t seed_lo = 1;
  std::uint64_t seed_hi = 10;  // inclusive
  int jobs = 4;
  std::string logdir;
  std::string command;  // with {seed} placeholders
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N | --seeds A..B] [--jobs N] "
               "[--logdir DIR] -- <command with {seed}>\n",
               argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string s = argv[i];
    if (s == "--") {
      ++i;
      break;
    }
    if (s == "--seeds" && i + 1 < argc) {
      const std::string_view spec = argv[++i];
      const auto range = amoeba::parse_range(spec);
      if (!range) usage(argv[0]);
      // A lone N means seeds 1..N.
      a.seed_lo = spec.find("..") == std::string_view::npos ? 1 : range->first;
      a.seed_hi = range->second;
      if (a.seed_hi < a.seed_lo) usage(argv[0]);
    } else if (s == "--jobs" && i + 1 < argc) {
      const auto n = amoeba::parse_u64(argv[++i]);
      if (!n || *n < 1 || *n > std::numeric_limits<int>::max()) {
        usage(argv[0]);
      }
      a.jobs = static_cast<int>(*n);
    } else if (s == "--logdir" && i + 1 < argc) {
      a.logdir = argv[++i];
    } else {
      usage(argv[0]);
    }
  }
  for (; i < argc; ++i) {
    if (!a.command.empty()) a.command += ' ';
    a.command += argv[i];
  }
  if (a.command.empty()) usage(argv[0]);
  return a;
}

std::string substitute_seed(const std::string& tmpl, std::uint64_t seed) {
  std::string out;
  std::size_t at = 0;
  while (true) {
    const std::size_t hit = tmpl.find("{seed}", at);
    if (hit == std::string::npos) {
      out += tmpl.substr(at);
      return out;
    }
    out += tmpl.substr(at, hit - at);
    out += std::to_string(seed);
    at = hit + 6;
  }
}

pid_t launch(const Args& a, std::uint64_t seed) {
  const std::string cmd = substitute_seed(a.command, seed);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("simsweep: fork");
    return -1;
  }
  if (pid == 0) {
    if (!a.logdir.empty()) {
      const std::string log =
          amoeba::numbered(a.logdir + "/seed-", seed) + ".log";
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
    }
    execl("/bin/sh", "sh", "-c", cmd.c_str(), static_cast<char*>(nullptr));
    std::perror("simsweep: execl");
    _exit(127);
  }
  return pid;
}

/// Exit status -> short human label ("ok", "exit 3", "signal 6").
std::string describe(int status) {
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    return code == 0 ? "ok" : amoeba::numbered("exit ", code);
  }
  if (WIFSIGNALED(status)) {
    return amoeba::numbered("signal ", WTERMSIG(status));
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const std::uint64_t total = a.seed_hi - a.seed_lo + 1;
  std::printf("simsweep: seeds %llu..%llu (%llu runs), %d jobs\n  %s\n",
              static_cast<unsigned long long>(a.seed_lo),
              static_cast<unsigned long long>(a.seed_hi),
              static_cast<unsigned long long>(total), a.jobs,
              a.command.c_str());

  std::map<pid_t, std::uint64_t> running;  // pid -> seed
  std::map<std::uint64_t, std::string> failures;  // seed -> description
  std::uint64_t next = a.seed_lo;
  std::uint64_t done = 0;

  while (done < total) {
    while (next <= a.seed_hi &&
           running.size() < static_cast<std::size_t>(a.jobs)) {
      const pid_t pid = launch(a, next);
      if (pid < 0) {
        failures[next] = "fork failed";
        ++done;
      } else {
        running[pid] = next;
      }
      ++next;
    }
    if (running.empty()) continue;
    int status = 0;
    const pid_t pid = waitpid(-1, &status, 0);
    if (pid < 0) continue;
    const auto it = running.find(pid);
    if (it == running.end()) continue;
    const std::uint64_t seed = it->second;
    running.erase(it);
    ++done;
    const std::string what = describe(status);
    if (what != "ok") {
      failures[seed] = what;
    }
    std::printf("  seed %-6llu %s   [%llu/%llu]\n",
                static_cast<unsigned long long>(seed), what.c_str(),
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(total));
    std::fflush(stdout);
  }

  int rc = 0;
  if (failures.empty()) {
    std::printf("simsweep: %llu/%llu seeds passed\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(total));
  } else {
    std::printf("simsweep: %zu/%llu seeds FAILED:\n", failures.size(),
                static_cast<unsigned long long>(total));
    for (const auto& [seed, what] : failures) {
      std::printf("  seed %llu: %s\n",
                  static_cast<unsigned long long>(seed), what.c_str());
    }
    rc = 1;
  }
  return rc;
}
