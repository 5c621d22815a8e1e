#!/usr/bin/env python3
"""Quickstart: two mutually distrustful processes call each other through
dIPC — Table 2's API end to end.

Run:  python examples/quickstart.py
"""

from repro import DipcManager, EntryDescriptor, IsolationPolicy, Kernel, \
    RemoteFault, Signature


def main():
    # 1. boot a 4-CPU machine and attach the dIPC OS extension
    kernel = Kernel(num_cpus=4)
    dipc = DipcManager(kernel)

    # 2. two dIPC-enabled processes: they share one page table in the
    #    global virtual address space, isolated by CODOMs domains
    web = kernel.spawn_process("web", dipc=True)
    database = kernel.spawn_process("database", dipc=True)

    # 3. the database exports a 'query' entry point. It protects itself:
    #    callers get a private stack and cannot touch its DCS.
    def query(t, key):
        yield from t.compute(250)  # ns of "SQL"
        if key == "missing":
            raise KeyError(key)  # a callee crash — watch what happens
        return {"title": f"row for {key}"}

    entry_handle = dipc.entry_register(
        database, dipc.dom_default(database),
        [EntryDescriptor(signature=Signature(in_regs=1, out_regs=1),
                         policy=IsolationPolicy(stack_confidentiality=True,
                                                dcs_confidentiality=True),
                         func=query, name="query")])

    # 4. the web server imports it (P4: signatures must match), dIPC
    #    generates a trusted proxy, and the web server grants itself
    #    CALL permission to the proxy domain
    request = [EntryDescriptor(signature=Signature(in_regs=1, out_regs=1),
                               policy=IsolationPolicy(reg_integrity=True),
                               name="query")]
    proxy_domain, proxies = dipc.entry_request(web, entry_handle, request)
    dipc.grant_create(dipc.dom_default(web), proxy_domain)
    query_address = request[0].address
    print(f"proxy generated: {proxies[0]!r}")
    print(f"  template steps: {', '.join(proxies[0].template.steps)}")

    # 5. a web thread calls across processes like a function call
    def web_main(t):
        # first call takes the cold process-tracking path (an upcall into
        # the database's management thread); warm it up, then measure
        yield from t.kernel.dipc.call(t, query_address, "warmup")
        start = t.now()
        row = yield from t.kernel.dipc.call(t, query_address, "dvd-42")
        elapsed = t.now() - start
        print(f"cross-process call returned {row} in {elapsed:.1f}ns "
              "(a local RPC would take ~7000ns)")

        # a crash in the database does NOT kill this thread: the kernel
        # unwinds the KCS and flags the error here (P5)
        try:
            yield from t.kernel.dipc.call(t, query_address, "missing")
        except RemoteFault as fault:
            print(f"callee crashed safely: {fault} "
                  f"(origin={fault.origin})")
        print(f"still running in process "
              f"'{t.current_process.name}' — isolation held")

    kernel.spawn(web, web_main, name="web-main")
    kernel.run()
    kernel.check()


if __name__ == "__main__":
    main()
