#!/usr/bin/env python3
"""Socket-serving end-to-end harness for shapcq_server --listen.

Three checks against a real server process:

  1. Concurrent differential: N socket clients drive disjoint sessions
     through a mixed OPEN/DELTA/REPORT/STATS workload at once; each
     client's received byte stream must be identical to replaying its
     command file serially through `shapcq_server --script` (the striped
     registry changes locking, never output).
  2. Admission control: with --max-conns 1, the second concurrent client
     receives one structured "[E_OVERLOAD]" line and an orderly close.
  3. Graceful drain under load: SIGTERM while clients are mid-stream must
     exit 0; with --log-dir, every command acknowledged before the drain
     must recover on restart, and recovered REPORT blocks must be
     byte-identical to an uninterrupted oracle fed the acked prefix.

usage: server_socket_e2e.py SHAPCQ_SERVER
"""

import argparse
import os
import re
import shutil
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
    """The mixed workload of one client, on its private session."""
    lines = [
        "OPEN %s %s" % (session, QUERY),
        "DELTA %s + Stud(ann)" % session,
        "DELTA %s + Stud(bob)" % session,
        "DELTA %s + Reg(ann,os_%s)*" % (session, session),
        "REPORT %s" % session,
        "DELTA %s + Reg(bob,db)*" % session,
        "DELTA %s + TA(bob)*" % session,
        "REPORT %s top_k=2" % session,
        "DELTA %s - Reg(bob,db)" % session,
        "REPORT %s threads=2" % session,
        "STATS %s" % session,
        "CLOSE %s" % session,
    ]
    return "\n".join(lines) + "\n"


def start_listen_server(server_bin, extra_flags):
    """Starts --listen 127.0.0.1:0 and parses the bound port off stderr."""
    proc = subprocess.Popen(
        [server_bin, "--listen", "127.0.0.1:0"] + extra_flags,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
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
    """SIGTERMs the server and returns its exit code."""
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("server did not drain within 30s of SIGTERM")
    proc.stderr.read()
    proc.stderr.close()
    return code


def roundtrip(port, payload):
    """Connects, sends everything, half-closes, drains the reply."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    try:
        sock.sendall(payload.encode())
        sock.shutdown(socket.SHUT_WR)
    except OSError:
        pass  # server replied and closed already (e.g. overload rejection)
    received = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        received += chunk
    sock.close()
    return received


def serial_replay(server_bin, script_text):
    """The oracle: the same commands through --script, single-writer."""
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


def check_concurrent_differential(server_bin, num_clients):
    proc, port = start_listen_server(server_bin, [])
    sessions = ["conc%d" % i for i in range(num_clients)]
    received = [None] * num_clients

    def drive(index):
        received[index] = roundtrip(port, client_script(sessions[index]))

    threads = [
        threading.Thread(target=drive, args=(i,)) for i in range(num_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    code = finish_server(proc)
    if code != 0:
        fail("listen server exited %d after a clean workload" % code)

    for i, session in enumerate(sessions):
        expected = serial_replay(server_bin, client_script(session))
        if received[i] != expected:
            fail(
                "client %s socket transcript differs from serial replay\n"
                "--- socket ---\n%s\n--- serial ---\n%s"
                % (session, received[i].decode(), expected.decode())
            )
    print(
        "concurrent differential: %d clients byte-identical to serial replay"
        % num_clients
    )


def check_connection_cap(server_bin):
    proc, port = start_listen_server(server_bin, ["--max-conns", "1"])
    holder = socket.create_connection(("127.0.0.1", port), timeout=30)
    holder_file = holder.makefile("rwb")
    holder_file.write(b"OPEN s %s\n" % QUERY.encode())
    holder_file.flush()
    if holder_file.readline() != b"> OPEN s %s\n" % QUERY.encode():
        fail("holder echo missing")
    if holder_file.readline() != b"ok open s\n":
        fail("holder ack missing")

    rejected = roundtrip(port, "STATS s\n")
    if rejected != b"error: [E_OVERLOAD] server at connection cap (max 1)\n":
        fail("expected structured overload, got: %r" % rejected)

    holder.shutdown(socket.SHUT_WR)
    holder_file.read()
    holder.close()
    code = finish_server(proc)
    if code != 0:
        fail("capped server exited %d" % code)
    print("connection cap: structured [E_OVERLOAD] and orderly close")


def drive_until_cut(port, session, acked):
    """Streams deltas one round-trip at a time until the server drains.

    Records in `acked` (a list) the number of DELTA commands whose full
    two-line response arrived — exactly the prefix that must recover.
    """
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    stream = sock.makefile("rwb")

    def command(line, reply_lines):
        stream.write(line.encode() + b"\n")
        try:
            stream.flush()
        except (BrokenPipeError, ConnectionResetError):
            return False
        for _ in range(reply_lines):
            if not stream.readline():
                return False
        return True

    if not command("OPEN %s %s" % (session, QUERY), 2):
        sock.close()
        return
    count = 0
    for i in range(2000):
        if not command("DELTA %s + Reg(u%d,c%d)*" % (session, i, i), 2):
            break
        count += 1
        acked[0] = count
        time.sleep(0.002)
    sock.close()


def check_sigterm_drain_recovers(server_bin):
    log_dir = tempfile.mkdtemp(prefix="shapcq_socket_e2e_")
    try:
        proc, port = start_listen_server(
            server_bin, ["--log-dir", log_dir, "--fsync=batch"]
        )
        sessions = ["load0", "load1"]
        acks = [[0], [0]]
        threads = [
            threading.Thread(
                target=drive_until_cut, args=(port, sessions[i], acks[i])
            )
            for i in range(len(sessions))
        ]
        for t in threads:
            t.start()
        time.sleep(0.4)  # let both clients get well into their streams
        code = finish_server(proc)  # SIGTERM mid-load
        for t in threads:
            t.join()
        if code != 0:
            fail("SIGTERM mid-load exited %d, want 0" % code)
        for i, session in enumerate(sessions):
            if acks[i][0] == 0:
                fail("client %s had no acked deltas before the drain" % session)

        # Restart on the same log dir: every acked command must be there,
        # and the reports must match an uninterrupted oracle byte for byte.
        for i, session in enumerate(sessions):
            acked = acks[i][0]
            probe = subprocess.run(
                [server_bin, "--log-dir", log_dir, "--script", "/dev/stdin"],
                input=("STATS %s\nREPORT %s\n" % (session, session)).encode(),
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
            if probe.returncode != 0:
                fail("recovery probe exited %d" % probe.returncode)
            stats = re.search(
                rb"stats %s facts=(\d+) " % session.encode(), probe.stdout
            )
            if not stats:
                fail("no recovered stats for %s" % session)
            recovered = int(stats.group(1))
            if recovered < acked:
                fail(
                    "session %s recovered %d facts < %d acked before drain"
                    % (session, recovered, acked)
                )

            oracle_script = "OPEN %s %s\n" % (session, QUERY) + "".join(
                "DELTA %s + Reg(u%d,c%d)*\n" % (session, j, j)
                for j in range(recovered)
            ) + "REPORT %s\n" % session
            oracle = serial_replay(server_bin, oracle_script)

            def report_block(output):
                match = re.search(
                    rb"^report .*?^end report [^\n]*\n",
                    output,
                    re.M | re.S,
                )
                return match.group(0) if match else None

            got = report_block(probe.stdout)
            want = report_block(oracle)
            if got is None or want is None or got != want:
                fail("recovered report for %s differs from oracle" % session)
        print(
            "sigterm drain: exit 0, %s acked deltas recovered bit-identical"
            % "/".join(str(a[0]) for a in acks)
        )
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("server", help="path to shapcq_server")
    parser.add_argument("--clients", type=int, default=4)
    args = parser.parse_args()

    check_concurrent_differential(args.server, args.clients)
    check_connection_cap(args.server)
    check_sigterm_drain_recovers(args.server)
    print("OK")


if __name__ == "__main__":
    main()
