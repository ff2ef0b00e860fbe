#include "answers.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "serve/result_writer.h"
#include "store/triple_store_backend.h"
#include "util/hash.h"

namespace perfbench {

namespace {

constexpr std::string_view kBindings = "\"bindings\":[";

/// One reference answer on the wire between the child and the parent.
struct WireAnswer {
  uint64_t ok = 0;
  uint64_t rows = 0;
  uint64_t hash = 0;
};

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

/// Child body: evaluates every job and streams WireAnswers to \p fd.
int ComputeInChild(const std::vector<ReferenceJob>& jobs, int fd) {
  namespace store = rdfrel::store;
  for (const ReferenceJob& job : jobs) {
    auto ts = store::TripleStoreBackend::Load(*job.graph);
    for (const std::string& q : job.queries) {
      WireAnswer w;
      if (ts.ok()) {
        auto rs = (*ts)->Query(q);
        if (rs.ok()) {
          Answer a = AnswerOf(*rs);
          w = {1, a.rows, a.hash};
        } else {
          std::fprintf(stderr, "reference query failed: %s\n",
                       rs.status().ToString().c_str());
        }
      }
      if (!WriteAll(fd, &w, sizeof(w))) return 1;
    }
  }
  return 0;
}

}  // namespace

std::optional<Answer> AnswerOfJson(std::string_view body) {
  const size_t start = body.find(kBindings);
  if (start == std::string_view::npos) return std::nullopt;
  Answer a;
  // The head (variable list) is part of the signature.
  a.hash = rdfrel::Fnv1a64(body.substr(0, start));
  size_t i = start + kBindings.size();
  int depth = 0;
  bool in_string = false;
  size_t row_begin = 0;
  for (; i < body.size(); ++i) {
    const char c = body[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth++ == 0) row_begin = i;
    } else if (c == '}') {
      if (--depth == 0) {
        // Rows combine by addition, so their order does not matter.
        a.hash += rdfrel::Mix64(
            rdfrel::Fnv1a64(body.substr(row_begin, i + 1 - row_begin)));
        ++a.rows;
      } else if (depth < 0) {
        return std::nullopt;
      }
    } else if (c == ']' && depth == 0) {
      return body.substr(i) == "]}}" ? std::optional<Answer>(a)
                                     : std::nullopt;
    }
  }
  return std::nullopt;
}

Answer AnswerOf(const rdfrel::store::ResultSet& rs) {
  return AnswerOfJson(rdfrel::serve::SerializeResultSet(rs, "json"))
      .value_or(Answer{});
}

std::optional<std::vector<std::vector<Answer>>> ReferenceAnswers(
    const std::vector<ReferenceJob>& jobs) {
  int fds[2];
  if (::pipe(fds) != 0) return std::nullopt;
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    ::close(fds[0]);
    const int rc = ComputeInChild(jobs, fds[1]);
    ::close(fds[1]);
    ::_exit(rc);
  }
  ::close(fds[1]);
  std::vector<std::vector<Answer>> out;
  bool ok = true;
  for (const ReferenceJob& job : jobs) {
    out.emplace_back();
    for (size_t q = 0; q < job.queries.size() && ok; ++q) {
      WireAnswer w;
      ok = ReadAll(fds[0], &w, sizeof(w)) && w.ok == 1;
      out.back().push_back({w.rows, w.hash});
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return out;
}

}  // namespace perfbench
