#!/usr/bin/env python3
"""The Figure 3 workflow with the compiler pass: annotate two modules,
compile, load, and let the runtime resolve the cross-process entry on
first use over a named socket — then compare against local RPC.

Run:  python examples/multi_tier_server.py
"""

from repro import (AnnotatedModule, DipcRuntime, IsolationPolicy, Kernel,
                   Signature, compile_module)
from repro.ipc import RpcClient, RpcServer, SocketNamespace


def build_database():
    module = AnnotatedModule("database")

    @module.entry("default", Signature(in_regs=1, out_regs=1),
                  iso_callee=IsolationPolicy(stack_confidentiality=True))
    def query(t, key):
        yield from t.compute(300)
        return ("row", key)

    return module, query


def build_web():
    module = AnnotatedModule("web")
    module.import_entry("query", "/dipc/db/query",
                        Signature(in_regs=1, out_regs=1),
                        iso_caller=IsolationPolicy(reg_integrity=True))
    return module


def main():
    kernel = Kernel(num_cpus=4)
    runtime = DipcRuntime(kernel)

    db_proc = kernel.spawn_process("database", dipc=True)
    web_proc = kernel.spawn_process("web", dipc=True)

    db_module, query_impl = build_database()
    runtime.enable(db_proc, compile_module(db_module,
                                           export_path="/dipc/db"))
    web_image = runtime.enable(web_proc, compile_module(build_web()))

    # a classic RPC server for the comparison
    rpc_ns = SocketNamespace()
    rpc_server_proc = kernel.spawn_process("database-rpc")
    rpc_server = RpcServer(kernel, rpc_server_proc, rpc_ns, "/rpc/db")

    def rpc_query(t, key):
        yield from t.compute(300)
        return 64, ("row", key)

    rpc_server.register("query", rpc_query)
    kernel.spawn(rpc_server_proc, rpc_server.serve_loop, pin=1)
    rpc_client = RpcClient(kernel, web_proc, rpc_ns, "/rpc/db")

    N = 200

    def web_main(t):
        # first call resolves the entry over the named socket (step A)
        # and generates the proxy (step B); later calls reuse it
        first_start = t.now()
        yield from web_image.call_import(t, "query", "warm")
        first = t.now() - first_start

        start = t.now()
        for i in range(N):
            yield from web_image.call_import(t, "query", i)
        dipc_ns = (t.now() - start) / N

        yield from rpc_client.call(t, "query", 64, "warm")
        start = t.now()
        for i in range(N):
            yield from rpc_client.call(t, "query", 64, i)
        rpc_ns = (t.now() - start) / N
        yield from rpc_client.shutdown_server(t)

        print(f"first dIPC call (resolution + proxy generation): "
              f"{first:.0f}ns")
        print(f"steady-state dIPC call : {dipc_ns:8.1f}ns")
        print(f"steady-state local RPC : {rpc_ns:8.1f}ns")
        print(f"speedup                : {rpc_ns / dipc_ns:.1f}x "
              f"(both include the 300ns query itself)")

    kernel.spawn(web_proc, web_main, pin=0)
    kernel.run()
    kernel.check()


if __name__ == "__main__":
    main()
