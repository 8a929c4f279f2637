"""``python -m repro`` entry point."""

from repro.blas import pin_thread_pools

# Before the first numpy import, which the CLI makes: the pools are
# sized when BLAS loads, and forked serve workers inherit them.
pin_thread_pools()

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
