#include "common/proc.hh"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/json_escape.hh"
#include "obs/trace.hh"

namespace axmemo {

namespace {

using Clock = std::chrono::steady_clock;

/** Write all of @p data to @p fd, retrying on EINTR/short writes. */
bool
writeAll(int fd, const char *data, std::size_t size)
{
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Pull the string member @p key out of the flat error object. A
 * hand-rolled scanner keeps common/ free of the core/ JSON parser; the
 * payload is produced by errorToJson only, so the shape is fixed.
 */
bool
scanStringMember(const std::string &json, const char *key,
                 std::string &out)
{
    const std::string needle = std::string("\"") + key + "\":\"";
    const std::size_t start = json.find(needle);
    if (start == std::string::npos)
        return false;
    out.clear();
    for (std::size_t i = start + needle.size(); i < json.size(); ++i) {
        const char c = json[i];
        if (c == '"')
            return true;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (++i >= json.size())
            return false;
        switch (json[i]) {
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (i + 4 < json.size()) {
                out += static_cast<char>(
                    std::strtoul(json.substr(i + 1, 4).c_str(),
                                 nullptr, 16));
                i += 4;
            }
            break;
          default: out += json[i]; break;
        }
    }
    return false;
}

ErrorCode
errorCodeFromName(const std::string &name)
{
    static const std::pair<const char *, ErrorCode> table[] = {
        {"none", ErrorCode::None},
        {"config", ErrorCode::Config},
        {"parse", ErrorCode::Parse},
        {"io", ErrorCode::Io},
        {"workload", ErrorCode::Workload},
        {"simulation", ErrorCode::Simulation},
        {"timeout", ErrorCode::Timeout},
        {"cancelled", ErrorCode::Cancelled},
        {"internal", ErrorCode::Internal},
    };
    for (const auto &[text, code] : table)
        if (name == text)
            return code;
    return ErrorCode::Internal;
}

/** Reap @p pid and classify its exit as an Error (Ok = no error). */
Error
reapChild(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return Error{ErrorCode::Internal, "proc",
                         std::string("waitpid failed: ") +
                             std::strerror(errno)};
    }
    if (WIFSIGNALED(status))
        return Error{ErrorCode::Simulation, "proc",
                     std::string("isolated job killed by signal ") +
                         std::to_string(WTERMSIG(status))};
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0)
        return Error{ErrorCode::Simulation, "proc",
                     std::string("isolated job exited with status ") +
                         std::to_string(WEXITSTATUS(status))};
    return Error{};
}

} // namespace

std::string
errorToJson(const Error &error)
{
    std::string out = "{\"code\":\"";
    out += errorCodeName(error.code);
    out += "\",\"component\":\"";
    out += jsonEscape(error.component);
    out += "\",\"message\":\"";
    out += jsonEscape(error.message);
    out += "\"}";
    return out;
}

Error
errorFromJson(const std::string &json)
{
    Error error;
    std::string code;
    if (!scanStringMember(json, "code", code) ||
        !scanStringMember(json, "component", error.component) ||
        !scanStringMember(json, "message", error.message))
        return Error{ErrorCode::Internal, "proc",
                     "unparseable child error: " + json};
    error.code = errorCodeFromName(code);
    if (error.code == ErrorCode::None)
        error.code = ErrorCode::Internal;
    return error;
}

Expected<std::string>
runInForkedChild(const std::function<std::string()> &fn,
                 double timeoutSeconds)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return Error{ErrorCode::Io, "proc",
                     std::string("pipe failed: ") +
                         std::strerror(errno)};
    // Second pipe: the child's stderr. Warn/inform lines the child
    // prints while simulating are relayed through the parent's obs sink
    // one whole line at a time, so concurrent isolated children never
    // tear each other's lines mid-write. The child's lines already
    // carry the worker label (tlsLabel survives the fork), so the relay
    // adds nothing.
    int errFds[2];
    if (::pipe(errFds) != 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return Error{ErrorCode::Io, "proc",
                     std::string("pipe failed: ") +
                         std::strerror(errno)};
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        ::close(errFds[0]);
        ::close(errFds[1]);
        return Error{ErrorCode::Io, "proc",
                     std::string("fork failed: ") +
                         std::strerror(errno)};
    }

    if (pid == 0) {
        // Child: run the job, ship one framed payload, and _exit —
        // never unwind back into the (forked copy of the) pool thread.
        ::close(fds[0]);
        ::close(errFds[0]);
        ::dup2(errFds[1], STDERR_FILENO);
        ::close(errFds[1]);
        std::string frame;
        try {
            frame = "OK\n" + fn();
        } catch (const AxException &e) {
            frame = "ERR\n" + errorToJson(e.error());
        } catch (const std::exception &e) {
            frame = "ERR\n" + errorToJson(Error{ErrorCode::Internal,
                                                "proc", e.what()});
        } catch (...) {
            frame = "ERR\n" + errorToJson(
                                  Error{ErrorCode::Internal, "proc",
                                        "non-exception throw in "
                                        "isolated job"});
        }
        const bool wrote = writeAll(fds[1], frame.data(), frame.size());
        ::close(fds[1]);
        ::_exit(wrote ? 0 : 3);
    }

    // Parent: drain both pipes under the deadline. EOF on both (the
    // child closed its ends by exiting) terminates the read loop; the
    // exit status then decides. Stderr bytes are buffered and relayed
    // through the obs sink one complete line at a time.
    ::close(fds[1]);
    ::close(errFds[1]);
    std::string frame;
    std::string errPending;
    bool timedOut = false;
    int resultFd = fds[0];
    int errFd = errFds[0];
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               timeoutSeconds > 0 ? timeoutSeconds
                                                  : 0.0));
    char buf[1 << 16];
    const auto relayErrLines = [&] {
        std::size_t eol;
        while ((eol = errPending.find('\n')) != std::string::npos) {
            obs::forwardLine(stderr, errPending.substr(0, eol));
            errPending.erase(0, eol + 1);
        }
    };
    while (resultFd >= 0 || errFd >= 0) {
        int waitMs = -1;
        if (timeoutSeconds > 0) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
            if (left <= 0) {
                timedOut = true;
                break;
            }
            waitMs = static_cast<int>(
                std::min<long long>(left, 60 * 1000));
        }
        struct pollfd pfds[2];
        nfds_t nfds = 0;
        if (resultFd >= 0)
            pfds[nfds++] = {resultFd, POLLIN, 0};
        if (errFd >= 0)
            pfds[nfds++] = {errFd, POLLIN, 0};
        const int ready = ::poll(pfds, nfds, waitMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0)
            continue; // poll slice elapsed; re-check the deadline
        for (nfds_t p = 0; p < nfds; ++p) {
            if (!(pfds[p].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const bool isErr = pfds[p].fd == errFd;
            const ssize_t n = ::read(pfds[p].fd, buf, sizeof(buf));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                ::close(pfds[p].fd);
                (isErr ? errFd : resultFd) = -1;
                continue;
            }
            if (isErr) {
                errPending.append(buf, static_cast<std::size_t>(n));
                relayErrLines();
            } else {
                frame.append(buf, static_cast<std::size_t>(n));
            }
        }
    }
    if (resultFd >= 0)
        ::close(resultFd);
    if (errFd >= 0)
        ::close(errFd);
    // A final partial line (the child died mid-write) still surfaces.
    relayErrLines();
    if (!errPending.empty()) {
        obs::forwardLine(stderr, errPending);
        errPending.clear();
    }

    if (timedOut) {
        ::kill(pid, SIGKILL);
        reapChild(pid); // ignore status: the kill is the verdict
        return Error{ErrorCode::Timeout, "proc",
                     "isolated job exceeded " +
                         std::to_string(timeoutSeconds) +
                         "s deadline (child killed)"};
    }

    const Error exit = reapChild(pid);
    if (frame.rfind("OK\n", 0) == 0 && exit.ok())
        return frame.substr(3);
    if (frame.rfind("ERR\n", 0) == 0)
        return errorFromJson(frame.substr(4));
    if (!exit.ok())
        return exit;
    return Error{ErrorCode::Internal, "proc",
                 "isolated job produced no result frame"};
}

} // namespace axmemo
