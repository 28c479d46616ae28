#!/usr/bin/env python3
"""Chaos harness for shapcq_server --listen: socket faults and timeouts.

Eight checks against a real server process, driving the transport through
its unhappy paths:

  1. Idle reap: with --io-timeout-ms, a client that opens a session and
     goes silent is closed (orderly EOF, no error line) while a concurrent
     active client is served byte-identically to a serial replay — and the
     silent client's session survives the reap.
  2. Read-timeout reap: with --io-timeout-ms, a connected-but-mute peer
     (the dead-peer/slow-loris shape) is reaped within the timeout; the
     server stays healthy and counts the reap in its drained io_timeouts=.
  3. Half-read line: with --io-timeout-ms, a client that sends "CLOSE s1"
     and only a second later "2\n" is reaped with its cut-short line
     dropped: session s1 stays open (the line never ran as CLOSE s1), and
     so does s12.
  4. net_short_write: every socket send capped to one byte (the injected
     fault) must still deliver byte-identical transcripts — the flush loop
     handles short writes, not just full ones.
  5. net_drop_mid_response: the n-th send transmits half its payload and
     then fails hard (the vanished-client shape). The victim receives a
     clean prefix of the oracle transcript, and the NEXT connection is
     served in full — one dead peer never wedges the server.
  6. net_eintr_recv: an EINTR storm on recv (the first N reads each take a
     spurious signal) must be fully transparent — byte-identical output.
  7. Deadline under chaos: with the short-write fault armed for the whole
     run, a REPORT deadline_ms=1 on a session grown until the budget
     reliably expires returns the structured [E_DEADLINE] line, and the
     immediately following undeadlined REPORT on the same connection is
     byte-identical to a fault-free serial oracle — cancellation leaves
     the engine consistent even when every reply dribbles out one byte at
     a time.
  8. Hostile REPORT keys: on a live server, one client sends numeric keys
     that once ended the process or misfired — approx=1e-10 and
     approx=0.000000001 (sample counts past size_t's range and past the
     per-run ceiling), threads=1000000 (a pool of a million workers) and
     deadline_ms=10000000000000 (a deadline past the clock's range). It
     must get an error line for each of the first three, a served table
     for the long deadline, and a served approx=0.1 table afterwards,
     while a concurrent client's transcript stays byte-identical to a
     serial replay and SIGTERM still drains with exit 0.

The net faults ride the SHAPCQ_FAULT environment hook of
src/util/fault_injector.h, same switch the WAL crash harness uses.

usage: server_chaos.py SHAPCQ_SERVER
"""

import argparse
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

QUERY = "q() :- Stud(x), not TA(x), Reg(x,y)"


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def client_script(session):
    lines = [
        "OPEN %s %s" % (session, QUERY),
        "DELTA %s + Stud(ann)" % session,
        "DELTA %s + Stud(bob)" % session,
        "DELTA %s + Reg(ann,os_%s)*" % (session, session),
        "REPORT %s" % session,
        "DELTA %s + Reg(bob,db)*" % session,
        "DELTA %s + TA(bob)*" % session,
        "REPORT %s top_k=2" % session,
        "STATS %s" % session,
        "CLOSE %s" % session,
    ]
    return "\n".join(lines) + "\n"


def start_listen_server(server_bin, extra_flags, env_extra=None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    proc = subprocess.Popen(
        [server_bin, "--listen", "127.0.0.1:0"] + extra_flags,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
    )
    deadline = time.time() + 10
    while time.time() < deadline:
        line = proc.stderr.readline()
        if not line:
            fail("server exited before announcing its port")
        match = re.search(rb"listening on 127\.0\.0\.1:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    fail("server never announced its port")


def finish_server(proc):
    """SIGTERMs the server; returns (exit_code, remaining stderr bytes)."""
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("server did not drain within 30s of SIGTERM")
    stderr = proc.stderr.read()
    proc.stderr.close()
    return code, stderr


def drained_io_timeouts(stderr):
    match = re.search(rb"io_timeouts=(\d+)", stderr)
    if not match:
        fail("no io_timeouts= tally on the drained stderr line: %r" % stderr)
    return int(match.group(1))


def roundtrip(port, payload, timeout=30):
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    try:
        sock.sendall(payload.encode())
        sock.shutdown(socket.SHUT_WR)
    except OSError:
        pass  # server closed mid-send (the drop fault does exactly that)
    received = b""
    while True:
        try:
            chunk = sock.recv(65536)
        except OSError:
            break
        if not chunk:
            break
        received += chunk
    sock.close()
    return received


def serial_replay(server_bin, script_text):
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
        f.write(script_text)
        path = f.name
    try:
        result = subprocess.run(
            [server_bin, "--script", path],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        if result.returncode != 0:
            fail("serial replay exited %d" % result.returncode)
        return result.stdout
    finally:
        os.unlink(path)


def read_lines(sock_file, count):
    lines = []
    for _ in range(count):
        line = sock_file.readline()
        if not line:
            break
        lines.append(line)
    return lines


def check_idle_reap_isolated(server_bin):
    proc, port = start_listen_server(server_bin, ["--io-timeout-ms", "200"])

    # The victim: one command, then silence with the connection held open.
    silent = socket.create_connection(("127.0.0.1", port), timeout=30)
    silent_file = silent.makefile("rwb")
    silent_file.write(b"OPEN idle %s\n" % QUERY.encode())
    silent_file.flush()
    acks = read_lines(silent_file, 2)
    if acks != [b"> OPEN idle %s\n" % QUERY.encode(), b"ok open idle\n"]:
        fail("silent client's OPEN not acked: %r" % acks)

    # A concurrent active client must be served as if the reap never
    # happened (its own activity keeps it clear of the read timeout).
    active = roundtrip(port, client_script("busy"))
    expected = serial_replay(server_bin, client_script("busy"))
    if active != expected:
        fail("active client transcript changed under the idle reap")

    # The victim sees an orderly EOF (no error line, no reset) once the
    # timeout expires.
    silent.settimeout(10)
    leftover = silent_file.read()
    if leftover != b"":
        fail("reaped client got unexpected bytes: %r" % leftover)
    silent.close()

    # The reaped SESSION survives: only the connection died.
    probe = roundtrip(port, "STATS idle\n")
    if b"stats idle " not in probe:
        fail("session 'idle' did not survive its connection's reap: %r"
             % probe)

    code, stderr = finish_server(proc)
    if code != 0:
        fail("idle-reap server exited %d" % code)
    if drained_io_timeouts(stderr) < 1:
        fail("idle reap not counted in io_timeouts")
    print("idle reap: silent client reaped, neighbor and session unharmed")


def check_io_timeout_reap(server_bin):
    proc, port = start_listen_server(server_bin, ["--io-timeout-ms", "150"])

    # The dead peer: connects and never sends a byte.
    mute = socket.create_connection(("127.0.0.1", port), timeout=30)
    mute.settimeout(10)
    start = time.time()
    got = mute.recv(4096)
    elapsed = time.time() - start
    if got != b"":
        fail("mute client received bytes: %r" % got)
    if elapsed > 5:
        fail("mute client reaped only after %.1fs (timeout 0.15s)" % elapsed)
    mute.close()

    # The server is past the reap and fully serviceable.
    got = roundtrip(port, client_script("after"))
    expected = serial_replay(server_bin, client_script("after"))
    if got != expected:
        fail("post-reap client transcript differs from serial replay")

    code, stderr = finish_server(proc)
    if code != 0:
        fail("io-timeout server exited %d" % code)
    if drained_io_timeouts(stderr) < 1:
        fail("read-timeout reap not counted in io_timeouts")
    print("io timeout: dead peer reaped in %.2fs, server healthy" % elapsed)


def check_half_line_dropped(server_bin):
    proc, port = start_listen_server(server_bin, ["--io-timeout-ms", "300"])

    client = socket.create_connection(("127.0.0.1", port), timeout=30)
    client_file = client.makefile("rwb")
    client_file.write(b"OPEN s1 %s\nOPEN s12 %s\n"
                      % (QUERY.encode(), QUERY.encode()))
    client_file.flush()
    acks = read_lines(client_file, 4)
    if len(acks) != 4 or acks[1] != b"ok open s1\n" or \
            acks[3] != b"ok open s12\n":
        fail("half-line client's OPENs not acked: %r" % acks)

    # "CLOSE s1" now, "2\n" one second later: the read timeout fires in
    # between, and the server must drop the cut-short line, not run it.
    client_file.write(b"CLOSE s1")
    client_file.flush()
    time.sleep(1.0)
    try:
        client.sendall(b"2\n")
    except OSError:
        pass  # the reap already closed the connection
    client.settimeout(10)
    try:
        leftover = client_file.read()
    except OSError:
        leftover = b""  # the late bytes reset the closed connection
    if leftover != b"":
        fail("half-read line got a reply: %r" % leftover)
    client.close()

    probe = roundtrip(port, "STATS s1\nSTATS s12\n")
    for session in [b"s1", b"s12"]:
        if b"stats %s " % session not in probe:
            fail("session %r did not survive a half-read CLOSE: %r"
                 % (session, probe))

    code, stderr = finish_server(proc)
    if code != 0:
        fail("half-line server exited %d" % code)
    if drained_io_timeouts(stderr) != 1:
        fail("half-line reap not counted once in io_timeouts")
    print("half-read line: dropped at the read timeout, s1 and s12 open")


def check_short_write_identity(server_bin):
    proc, port = start_listen_server(
        server_bin, [], env_extra={"SHAPCQ_FAULT": "net_short_write:1000000"}
    )
    got = roundtrip(port, client_script("dribble"))
    code, _ = finish_server(proc)
    if code != 0:
        fail("short-write server exited %d" % code)
    expected = serial_replay(server_bin, client_script("dribble"))
    if got != expected:
        fail(
            "one-byte-send transcript differs from oracle\n--- got ---\n%s"
            % got.decode(errors="replace")
        )
    print("net_short_write: 1-byte sends, transcript byte-identical")


def check_drop_mid_response(server_bin):
    # The 6th socket send transmits half its bytes and then fails hard —
    # mid-workload for the first client, spent before the second.
    proc, port = start_listen_server(
        server_bin, [], env_extra={"SHAPCQ_FAULT": "net_drop_mid_response:6"}
    )
    expected = serial_replay(server_bin, client_script("victim"))
    victim = roundtrip(port, client_script("victim"))
    if victim == expected:
        fail("drop fault never fired (victim got the full transcript)")
    if not expected.startswith(victim):
        fail(
            "victim's truncated transcript is not a prefix of the oracle\n"
            "--- victim ---\n%s" % victim.decode(errors="replace")
        )

    # One dead peer never wedges the server: the next connection (fault
    # spent) is served in full.
    after = roundtrip(port, client_script("survivor"))
    expected_after = serial_replay(server_bin, client_script("survivor"))
    if after != expected_after:
        fail("post-drop client transcript differs from serial replay")

    code, _ = finish_server(proc)
    if code != 0:
        fail("drop-fault server exited %d" % code)
    print(
        "net_drop_mid_response: victim got %d/%d oracle bytes, server "
        "stayed serviceable" % (len(victim), len(expected))
    )


def check_eintr_storm_transparent(server_bin):
    proc, port = start_listen_server(
        server_bin, [], env_extra={"SHAPCQ_FAULT": "net_eintr_recv:50"}
    )
    got = roundtrip(port, client_script("storm"))
    code, _ = finish_server(proc)
    if code != 0:
        fail("eintr-storm server exited %d" % code)
    expected = serial_replay(server_bin, client_script("storm"))
    if got != expected:
        fail("EINTR-storm transcript differs from oracle")
    print("net_eintr_recv: 50-signal storm fully transparent")


def big_session_lines(n):
    """An OPEN + delta stream big enough (for large n) that a 1ms REPORT
    deadline reliably expires mid-build/sweep."""
    lines = ["OPEN big %s" % QUERY]
    for i in range(n):
        s = "s%d" % i
        lines.append("DELTA big + Stud(%s)" % s)
        lines.append("DELTA big + Reg(%s,c%d)*" % (s, i % 7))
        if i % 3 == 0:
            lines.append("DELTA big + TA(%s)*" % s)
    return lines


def check_deadline_under_faults(server_bin):
    # Machine-speed independent: grow the session (fresh server + fresh
    # fault budget each round) until deadline_ms=1 reliably expires.
    needle = b"error: [E_DEADLINE] report big: deadline_ms=1 exceeded\n"
    n = 256
    while True:
        proc, port = start_listen_server(
            server_bin, [],
            env_extra={"SHAPCQ_FAULT": "net_short_write:1000000000"},
        )
        script = "\n".join(
            big_session_lines(n) + ["REPORT big deadline_ms=1", "REPORT big"]
        ) + "\n"
        transcript = roundtrip(port, script, timeout=120)
        code, _ = finish_server(proc)
        if code != 0:
            fail("deadline-chaos server exited %d" % code)
        if needle in transcript:
            break
        if n >= 1 << 16:
            fail("deadline_ms=1 never expired even at n=%d" % n)
        n *= 2

    # The undeadlined retry on the same (dribbling) connection must be
    # byte-identical to a fault-free serial oracle of the same session.
    oracle_script = "\n".join(big_session_lines(n) + ["REPORT big"]) + "\n"
    oracle = serial_replay(server_bin, oracle_script)
    marker = b"> REPORT big\n"
    got_tail = transcript[transcript.rfind(marker):]
    want_tail = oracle[oracle.rfind(marker):]
    if got_tail != want_tail:
        fail(
            "undeadlined retry after [E_DEADLINE] under net_short_write "
            "differs from the fault-free oracle\n--- got ---\n%s"
            % got_tail.decode(errors="replace")
        )
    print(
        "deadline under chaos: n=%d expired with [E_DEADLINE], dribbled "
        "retry byte-identical to fault-free oracle" % n
    )


def hostile_script():
    lines = [
        "OPEN hx q() :- R(x,y), S(x), T(y)",
        "DELTA hx + R(a,b)*",
        "DELTA hx + S(a)*",
        "DELTA hx + T(b)*",
        "REPORT hx approx=1e-10",
        "REPORT hx approx=0.000000001",
        "REPORT hx approx=0.1",
        "OPEN he %s" % QUERY,
        "DELTA he + Stud(ann)",
        "DELTA he + Reg(ann,os)*",
        "DELTA he + TA(ann)*",
        "REPORT he threads=1000000",
        "REPORT he deadline_ms=10000000000000",
        "CLOSE hx",
        "CLOSE he",
    ]
    return "\n".join(lines) + "\n"


def replies(transcript):
    """Maps each echoed command line to the reply text that follows it."""
    out = {}
    command = None
    for line in transcript.decode(errors="replace").splitlines(True):
        if line.startswith("> "):
            command = line[2:].rstrip("\n")
            out[command] = ""
        elif command is not None:
            out[command] += line
    return out


def check_hostile_report_keys(server_bin):
    proc, port = start_listen_server(server_bin, [])
    hostile = {}

    def run_hostile():
        hostile["transcript"] = roundtrip(port, hostile_script())

    thread = threading.Thread(target=run_hostile)
    thread.start()
    neighbor = roundtrip(port, client_script("calm"))
    thread.join(timeout=60)
    if thread.is_alive():
        fail("hostile client got no answer within 60s")
    code, _ = finish_server(proc)

    got = replies(hostile.get("transcript", b""))
    expect_error = {
        "REPORT hx approx=1e-10": "error: report hx: approx needs ",
        "REPORT hx approx=0.000000001": "error: report hx: approx needs ",
        "REPORT he threads=1000000":
            "error: report he: bad threads value '1000000' (at most 256)",
    }
    for command, prefix in expect_error.items():
        if not got.get(command, "").startswith(prefix):
            fail("%s answered %r, expected a line starting %r"
                 % (command, got.get(command), prefix))
    for command, session in [("REPORT hx approx=0.1", "hx"),
                             ("REPORT he deadline_ms=10000000000000", "he")]:
        reply = got.get(command, "")
        if "error" in reply or not reply.endswith("end report %s\n" % session):
            fail("%s was not served a table: %r" % (command, reply))
    for session in ["hx", "he"]:
        if got.get("CLOSE %s" % session) != "ok close %s\n" % session:
            fail("CLOSE %s not acked after the hostile reports" % session)

    expected = serial_replay(server_bin, client_script("calm"))
    if neighbor != expected:
        fail("neighbor transcript changed beside the hostile client")
    if code != 0:
        fail("hostile-keys server exited %d" % code)
    print("hostile report keys: 3 error lines, 2 served tables, neighbor "
          "byte-identical, clean drain")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("server", help="path to shapcq_server")
    args = parser.parse_args()

    check_idle_reap_isolated(args.server)
    check_io_timeout_reap(args.server)
    check_half_line_dropped(args.server)
    check_short_write_identity(args.server)
    check_drop_mid_response(args.server)
    check_eintr_storm_transparent(args.server)
    check_deadline_under_faults(args.server)
    check_hostile_report_keys(args.server)
    print("OK")


if __name__ == "__main__":
    main()
