#!/usr/bin/env python3
"""Sandboxing an untrusted plugin *inside one process* with asymmetric
isolation (§2.4, §3.3): the application can be protected from the plugin
without paying for mutual isolation — and without any IPC at all.

Run:  python examples/plugin_sandbox.py
"""

from repro import (AccessFault, DipcManager, EntryDescriptor,
                   IsolationPolicy, Kernel, Permission, RemoteFault,
                   Signature)


def main():
    kernel = Kernel(num_cpus=2)
    dipc = DipcManager(kernel)
    app = kernel.spawn_process("media-app", dipc=True)

    # the plugin lives in its own CODOMs domain inside the app's process
    plugin_dom = dipc.dom_create(app)
    plugin_heap = dipc.dom_mmap(app, plugin_dom, 4096)

    # app-private secrets live in the app's default domain
    secret_addr = app.alloc_bytes(4096)
    app.space.write(secret_addr, b"API-KEY-123")

    def decode_frame(t, frame_id):
        """The 'codec plugin': occasionally buggy, possibly nosy."""
        yield from t.compute(500)
        if frame_id == "corrupt":
            raise ValueError("bitstream error")
        if frame_id == "evil":
            # the plugin tries to read the app's secret: CODOMs says no —
            # its domain has no APL entry for the app's domain (P1)
            kernel.access.read(t.codoms, secret_addr, 11, t)
        return f"decoded:{frame_id}"

    handle = dipc.entry_register(
        app, plugin_dom,
        [EntryDescriptor(signature=Signature(in_regs=1, out_regs=1),
                         func=decode_frame, name="decode")])
    # asymmetric: the app saves its registers & stack (it does not trust
    # the plugin); the plugin asked for nothing (the app may inspect it)
    request = [EntryDescriptor(
        signature=Signature(in_regs=1, out_regs=1),
        policy=IsolationPolicy(reg_integrity=True, stack_integrity=True,
                               dcs_integrity=True),
        name="decode")]
    proxy_dom, proxies = dipc.entry_request(app, handle, request)
    dipc.grant_create(dipc.dom_default(app), proxy_dom)
    decode = request[0].address

    # ... and the app grants *itself* read access to the plugin's heap —
    # asymmetric isolation: direct access one way, sandboxed the other
    dipc.grant_create(dipc.dom_default(app),
                      dipc.dom_copy(plugin_dom, Permission.READ))

    def app_main(t):
        print(f"same-process sandboxed call, policy "
              f"'{proxies[0].stub_policy}':")
        out = yield from t.kernel.dipc.call(t, decode, "frame-1")
        print(f"  plugin returned: {out}")

        try:
            yield from t.kernel.dipc.call(t, decode, "corrupt")
        except RemoteFault as fault:
            print(f"  plugin crash contained: {fault.origin} failed, "
                  "app continues")

        try:
            yield from t.kernel.dipc.call(t, decode, "evil")
        except RemoteFault as fault:
            print("  plugin tried to read the app's secret: "
                  f"CODOMs denied it ({fault})")

        # the app, however, can inspect the plugin's heap directly:
        app.space.write(plugin_heap, b"\x00" * 16)  # e.g. scrub state
        print("  app scrubbed plugin heap directly (no IPC, no proxy)")

    kernel.spawn(app, app_main)
    kernel.run()
    kernel.check()


if __name__ == "__main__":
    main()
