"""Process hygiene: daemons on ephemeral ports, always stopped.

Every daemon listens on port 0 and publishes its port through a port file
in the run's temporary directory.  A Fleet owns the daemons it started and
stops all of them when it exits, on success, on a failed check, on an
exception and on SIGTERM/SIGINT (turned into SystemExit by run.py), then
waits for each to end.
"""

import os
import signal
import subprocess
import time


SPIN_S = 1.0  # Daemon.wait_ready polls without sleeping this long


class BenchError(RuntimeError):
    """A failed check or a broken component: the run reports no numbers."""


def proc_status(pid, field):
    """A numeric field of /proc/<pid>/status (kB values stay in kB)."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise BenchError(f"{field} missing from /proc/{pid}/status")


class Daemon:
    def __init__(self, name, argv, workdir):
        self.name = name
        self.port_file = os.path.join(workdir, f"{name}.port")
        self.log_path = os.path.join(workdir, f"{name}.log")
        if os.path.exists(self.port_file):
            os.unlink(self.port_file)
        self.argv = argv + ["--port", "0", "--port-file", self.port_file]
        self.log = open(self.log_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(self.argv, stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     stdin=subprocess.DEVNULL)
        self.port = None

    def wait_ready(self, timeout=60.0):
        """Blocks until the port file is written; returns seconds since
        spawn.  A daemon that exits first fails the run with its log.

        The first SPIN_S seconds poll without sleeping, so a cold start of
        a few milliseconds is not rounded up to a sleep's granularity."""
        deadline = self.started + timeout
        while True:
            if os.path.exists(self.port_file):
                with open(self.port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    self.port = int(text)
                    return time.perf_counter() - self.started
            if self.proc.poll() is not None:
                raise BenchError(f"{self.name} exited with code "
                                 f"{self.proc.returncode} before listening:\n"
                                 + self.log_tail())
            if time.perf_counter() > deadline:
                raise BenchError(f"{self.name} did not listen within "
                                 f"{timeout} s:\n" + self.log_tail())
            if time.perf_counter() - self.started > SPIN_S:
                time.sleep(0.001)

    def check_alive(self):
        if self.proc.poll() is not None:
            raise BenchError(f"{self.name} died (exit code "
                             f"{self.proc.returncode}):\n" + self.log_tail())

    def peak_rss_mb(self):
        self.check_alive()
        return proc_status(self.proc.pid, "VmHWM") / 1024.0

    def threads(self):
        self.check_alive()
        return proc_status(self.proc.pid, "Threads")

    def log_tail(self, lines=20):
        self.log.flush()
        try:
            with open(self.log_path) as f:
                return "".join(f.readlines()[-lines:])
        except OSError:
            return ""

    def stop(self, timeout=10.0):
        """SIGTERM (graceful drain), then SIGKILL; always waits."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Fleet:
    """Context manager owning every daemon a workload starts."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.daemons = []

    def start(self, name, argv):
        daemon = Daemon(name, argv, self.workdir)
        self.daemons.append(daemon)
        return daemon

    def stop(self, daemon):
        daemon.stop()
        self.daemons.remove(daemon)

    def stop_all(self):
        while self.daemons:
            self.daemons.pop().stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop_all()
        return False
