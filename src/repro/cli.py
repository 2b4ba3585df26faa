"""``swgate`` -- command-line interface to the reproduction.

Subcommands::

    swgate list                      # available experiments
    swgate run fig3                  # run one experiment, print its table
    swgate run all                   # every fast experiment
    swgate majority 0xA5 0x3C 0x0F   # evaluate the byte MAJ gate on words
    swgate circuit 0x9 0x6           # physical adder via the circuit engine
    swgate serve --port 8077         # JSON-over-HTTP circuit daemon
    swgate serve --send 0x9 0x6      # evaluate an adder on a running daemon
    swgate top --url URL             # live daemon throughput monitor
    swgate layout                    # print the byte gate placement
    swgate export-mif out.mif        # OOMMF MIF 2.1 export
"""

import argparse
import json
import sys

from repro.core.encoding import bits_to_int, int_to_bits


def _start_profile(args):
    """Enable timing instrumentation when ``--profile`` was passed."""
    if getattr(args, "profile", False):
        from repro import obs

        obs.enable()
        return True
    return False


def _print_profile(extra=None):
    """Print the span-tree profile and merged metrics table."""
    from repro import obs

    print()
    print(obs.report(extra=extra))


def _cmd_list(args):
    from repro.experiments.runner import EXPERIMENTS

    for name in sorted(EXPERIMENTS):
        _, description = EXPERIMENTS[name]
        print(f"{name:12s} {description}")
    return 0


def _cmd_run(args):
    from repro.experiments.runner import EXPERIMENTS, run_experiment

    profiled = _start_profile(args)
    if args.experiment == "all":
        names = [n for n in sorted(EXPERIMENTS) if n != "llg-x"]
    else:
        names = [args.experiment]
    for name in names:
        _, text = run_experiment(name, metrics=profiled or None)
        print(text)
        print()
    if profiled:
        _print_profile()
    return 0


def _parse_word(text):
    return int(text, 0)


def _cmd_majority(args):
    from repro import GateSimulator, byte_majority_gate

    gate = byte_majority_gate()
    words = [int_to_bits(_parse_word(w), gate.n_bits) for w in args.words]
    simulator = GateSimulator(gate)
    result = simulator.run_phasor(words) if args.fast else simulator.run(words)
    value = bits_to_int(result.decoded)
    expected = bits_to_int(result.expected)
    inputs = ", ".join(f"0x{_parse_word(w):02X}" for w in args.words)
    print(f"MAJ3({inputs}) = 0x{value:02X} "
          f"(expected 0x{expected:02X}, "
          f"{'correct' if result.correct else 'WRONG'})")
    print(f"min decode margin: {result.min_margin:.3f}")
    return 0 if result.correct else 1


def _cmd_layout(args):
    from repro.core.layout import InlineGateLayout

    layout = InlineGateLayout.paper_byte_layout()
    layout.validate()
    print(layout.describe())
    return 0


def _cmd_xor(args):
    from repro import GateSimulator, byte_xor_gate

    gate = byte_xor_gate()
    words = [int_to_bits(_parse_word(w), gate.n_bits) for w in args.words]
    result = GateSimulator(gate).run_phasor(words)
    value = bits_to_int(result.decoded)
    a, b = (_parse_word(w) for w in args.words)
    print(
        f"XOR(0x{a:02X}, 0x{b:02X}) = 0x{value:02X} "
        f"({'correct' if result.correct else 'WRONG'}, "
        f"amplitude readout)"
    )
    return 0 if result.correct else 1


def _cmd_adder(args):
    from repro.circuits import parallel_vs_scalar, ripple_carry_adder
    from repro.circuits.synth import evaluate_adder

    a = _parse_word(args.a)
    b = _parse_word(args.b)
    width = args.width
    netlist = ripple_carry_adder(width)
    total = evaluate_adder(netlist, a, b, width)
    print(f"{width}-bit MAJ/XOR ripple-carry adder: "
          f"0x{a:X} + 0x{b:X} = 0x{total:X}")
    result = parallel_vs_scalar(netlist, n_words=args.words)
    print(
        f"implementing {args.words} instances: scalar "
        f"{result.scalar_total.area * 1e12:.3f} um^2 vs parallel "
        f"{result.parallel_total.area * 1e12:.3f} um^2 "
        f"({result.area_ratio:.2f}x area saving, "
        f"energy ratio {result.energy_ratio:.2f})"
    )
    return 0 if total == a + b else 1


def _adder_assignment(a, b, width):
    """{input name: bit} of one (a, b) pair for a width-bit adder."""
    assignment = {}
    for i, bit in enumerate(int_to_bits(a, width)):
        assignment[f"a{i}"] = bit
    for i, bit in enumerate(int_to_bits(b, width)):
        assignment[f"b{i}"] = bit
    return assignment


def _adder_total(netlist, result, width):
    """Recompose the integer sum from an adder run's output columns.

    Outputs are registered sum-bit order first, carry-out last.
    """
    output_names = netlist.outputs
    total = 0
    for i, name in enumerate(output_names[:width]):
        total |= result.outputs[name][0] << i
    total |= result.outputs[output_names[-1]][0] << width
    return total


def _cmd_circuit(args):
    from repro.circuits import CircuitEngine, ripple_carry_adder

    profiled = _start_profile(args)
    a = _parse_word(args.a)
    b = _parse_word(args.b)
    width = args.width
    netlist = ripple_carry_adder(width)
    engine = CircuitEngine(netlist, n_bits=args.bits)
    assignment = _adder_assignment(a, b, width)
    executor = None
    if args.packed:
        # Serve the evaluation through the coalescing executor: the
        # compile-once artifact and cache stats make the compile/reuse
        # split visible from the command line.
        from repro.circuits import CircuitExecutor

        executor = CircuitExecutor(bindings=engine.bindings)
        ticket = executor.submit(netlist, [assignment], mode=args.mode)
        result = ticket.result()
    else:
        result = engine.run([assignment], mode=args.mode)
    if args.save_netlist:
        # The netlist's wire JSON: 'swgate serve --warm' compiles it at
        # start-up so the first request hits the compile cache.
        with open(args.save_netlist, "w") as handle:
            json.dump(netlist.to_dict(), handle)
        print(f"saved netlist to {args.save_netlist}")
    total = _adder_total(netlist, result, width)
    backend = (
        "time-domain waveform" if result.mode == "trace"
        else "steady-state phasor"
    )
    print(
        f"{width}-bit physical ripple-carry adder "
        f"({engine.n_physical_cells} spin-wave cells, "
        f"depth {netlist.depth()}, {args.bits}-bit data-parallel, "
        f"{backend} backend): "
        f"0x{a:X} + 0x{b:X} = 0x{total:X} "
        f"({'physics matches logic' if result.correct else 'WRONG'})"
    )
    for report in result.levels:
        margin = (
            "-" if report.min_margin is None else f"{report.min_margin:.3f}"
        )
        print(
            f"  level {report.level}: {report.n_physical} physical / "
            f"{report.n_cells} cells, min margin {margin}"
        )
    if executor is not None:
        print(f"  packed serving: {executor.describe()}")
    if profiled:
        _print_profile(
            extra=[executor.obs] if executor is not None else None
        )
    return 0 if result.correct and total == a + b else 1


def _load_netlists(paths):
    """Netlists from ``Netlist.to_dict`` JSON files, validated by
    ``Netlist.from_dict``; an unreadable or non-JSON file raises
    :class:`~repro.errors.NetlistError`."""
    from repro.circuits import Netlist
    from repro.errors import NetlistError

    netlists = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError, RecursionError) as exc:
            raise NetlistError(
                f"cannot read netlist JSON {str(path)!r}: {exc}"
            ) from None
        netlists.append(Netlist.from_dict(payload))
    return netlists


def _cmd_serve(args):
    from repro.serve import CircuitServer, ServeClient

    if args.send:
        # Client mode: evaluate one ripple-carry addition on a running
        # daemon through repro.serve.client and report its verdict.
        from repro.circuits import ripple_carry_adder

        a, b = (_parse_word(w) for w in args.send)
        width = args.width
        netlist = ripple_carry_adder(width)
        client = ServeClient(args.url)
        result = client.run(
            netlist, [_adder_assignment(a, b, width)], mode=args.mode
        )
        total = _adder_total(netlist, result, width)
        print(
            f"{width}-bit adder via {args.url}: "
            f"0x{a:X} + 0x{b:X} = 0x{total:X} "
            f"({'physics matches logic' if result.correct else 'WRONG'}, "
            f"{result.mode} mode)"
        )
        print(f"  server: {client.stats()['describe']}")
        return 0 if result.correct and total == a + b else 1

    warm = _load_netlists(args.warm or ())
    server = CircuitServer(
        host=args.host,
        port=args.port,
        n_bits=args.bits,
        max_block=args.max_block,
        max_latency=args.max_latency,
        cache_size=args.cache_size,
        trace_requests=not args.no_request_trace,
        access_log=args.access_log,
        log_capacity=args.log_capacity,
        slow_request_s=args.slow_request_ms / 1e3
        if args.slow_request_ms is not None else None,
        warm=warm,
    )
    if warm:
        print(
            f"warm-started {len(warm)} netlist(s): "
            + ", ".join(netlist.name for netlist in warm)
        )
    latency = (
        "no latency bound" if server.executor.max_latency is None
        else f"max_latency {server.executor.max_latency * 1e3:g} ms"
    )
    print(
        f"swgate serve: listening on {server.url} "
        f"({server.executor.n_bits}-bit cells, "
        f"max_block {server.executor.max_block} words, {latency}); "
        "endpoints: POST /v1/run, GET /healthz /metrics /stats /logs"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("swgate serve: shutting down")
        server.close()
    return 0


def _cmd_top(args):
    from repro.errors import ServeError
    from repro.serve.monitor import top

    try:
        top(
            args.url,
            interval=args.interval,
            iterations=args.iterations,
            clear=not args.no_clear,
        )
    except KeyboardInterrupt:
        pass
    except ServeError as exc:
        print(f"swgate top: {exc}")
        return 1
    return 0


def _cmd_synth(args):
    from repro.synthesis import (
        get_circuit,
        parse_spec,
        suite,
        synthesize,
        verify_physical,
    )

    if args.list:
        for circuit in suite():
            print(f"{circuit.name:12s} {circuit.description}")
        return 0
    from repro.errors import SynthesisError

    profiled = _start_profile(args)

    try:
        if args.expr:
            if args.circuit:
                print("synth: give a suite circuit OR --expr, not both")
                return 2
            mig = parse_spec({args.output: args.expr}, name=args.output)
            reference = None
            name = args.output
        else:
            if not args.circuit:
                print("synth: name a suite circuit or pass --expr "
                      "(see --list)")
                return 2
            circuit = get_circuit(args.circuit)
            mig = circuit.build()
            reference = circuit.reference
            name = circuit.name
        # synthesize() raises on a non-equivalent mapping, so a
        # returned result is always verified.
        result = synthesize(mig, name=name, reference=reference)
    except SynthesisError as error:
        print(f"synth: {error}")
        return 2
    print("optimization pipeline:")
    for stats in result.pass_stats:
        if stats.changed:
            print(f"  round {stats.round} {stats.describe()}")
    print(result.describe())
    if args.no_run:
        if profiled:
            _print_profile()
        return 0
    print()
    print(f"physical execution ({args.bits}-bit cells, {args.mode} mode):")
    correct = True
    for label, report in (
        ("naive", result.naive), ("optimized", result.optimized)
    ):
        physical = verify_physical(
            report.netlist, n_bits=args.bits, modes=(args.mode,)
        )[args.mode]
        correct &= physical.correct
        print(f"  {label:9s} {physical.describe()}")
    if profiled:
        _print_profile()
    return 0 if correct else 1


def _cmd_design(args):
    from repro.core.designer import design_gate
    from repro.core.gate import GateKind
    from repro.waveguide import Waveguide

    waveguide = Waveguide(
        width=args.width * 1e-9,
        include_width_modes=args.width != 50.0,
    )
    design = design_gate(
        waveguide,
        n_bits=args.bits,
        n_inputs=args.inputs,
        kind=GateKind(args.kind),
        verify=args.verify,
    )
    print(design.summary())
    return 0


def _cmd_export_mif(args):
    from repro import byte_majority_gate
    from repro.oommf import gate_to_mif

    gate = byte_majority_gate()
    words = [int_to_bits(_parse_word(w), gate.n_bits) for w in args.words]
    text = gate_to_mif(gate, words)
    with open(args.output, "w", encoding="ascii") as handle:
        handle.write(text)
    print(f"wrote {args.output} ({len(text)} bytes)")
    return 0


def _cmd_save_design(args):
    from repro import byte_majority_gate
    from repro.core.design_io import save_gate

    gate = byte_majority_gate()
    save_gate(gate, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_check_design(args):
    from repro.core.design_io import load_gate
    from repro.core.simulate import GateSimulator

    gate = load_gate(args.design)
    print(gate.describe())
    gate.layout.validate()
    words = [[0] * gate.n_bits for _ in range(gate.n_data_inputs)]
    result = GateSimulator(gate).run_phasor(words)
    print(
        f"layout valid; all-zeros evaluation "
        f"{'correct' if result.correct else 'WRONG'}"
    )
    return 0 if result.correct else 1


def build_parser():
    """The argparse command tree (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="swgate",
        description="n-bit data parallel spin wave logic gate reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(func=_cmd_list)

    run_parser = sub.add_parser("run", help="run an experiment")
    run_parser.add_argument(
        "experiment", help="experiment id from 'swgate list', or 'all'"
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="print a span-tree profile and metrics table afterwards",
    )
    run_parser.set_defaults(func=_cmd_run)

    maj_parser = sub.add_parser(
        "majority", help="evaluate the byte majority gate on three words"
    )
    maj_parser.add_argument("words", nargs=3, help="three 8-bit values (e.g. 0xA5)")
    maj_parser.add_argument(
        "--fast", action="store_true", help="phasor mode (no traces)"
    )
    maj_parser.set_defaults(func=_cmd_majority)

    sub.add_parser(
        "layout", help="print the byte gate placement"
    ).set_defaults(func=_cmd_layout)

    xor_parser = sub.add_parser(
        "xor", help="evaluate the byte XOR gate on two words"
    )
    xor_parser.add_argument("words", nargs=2, help="two 8-bit values")
    xor_parser.set_defaults(func=_cmd_xor)

    adder_parser = sub.add_parser(
        "adder", help="evaluate and price a MAJ/XOR ripple-carry adder"
    )
    adder_parser.add_argument("a", help="first operand")
    adder_parser.add_argument("b", help="second operand")
    adder_parser.add_argument(
        "--width", type=int, default=8, help="adder width in bits"
    )
    adder_parser.add_argument(
        "--words",
        type=int,
        default=8,
        help="parallel data words for the cost comparison",
    )
    adder_parser.set_defaults(func=_cmd_adder)

    circuit_parser = sub.add_parser(
        "circuit",
        help="run a ripple-carry adder through the physical circuit engine",
    )
    circuit_parser.add_argument("a", help="first operand")
    circuit_parser.add_argument("b", help="second operand")
    circuit_parser.add_argument(
        "--width", type=int, default=4, help="adder width in bits"
    )
    circuit_parser.add_argument(
        "--bits",
        type=int,
        default=8,
        help="data-parallel width of each physical cell",
    )
    circuit_parser.add_argument(
        "--mode",
        default="phasor",
        choices=["phasor", "trace"],
        help="execution semantics: steady-state phasor (fast) or "
        "time-domain waveform traces with lock-in decode",
    )
    circuit_parser.add_argument(
        "--packed",
        action="store_true",
        help="serve the run through the compile-once coalescing "
        "executor and report its compile-cache statistics",
    )
    circuit_parser.add_argument(
        "--profile",
        action="store_true",
        help="print a span-tree profile (compile stages, per-level "
        "timings) and metrics table afterwards",
    )
    circuit_parser.add_argument(
        "--save-netlist",
        default=None,
        metavar="PATH",
        help="write the adder netlist as JSON to PATH so "
        "'swgate serve --warm PATH' starts with a hot compile cache",
    )
    circuit_parser.set_defaults(func=_cmd_circuit)

    serve_parser = sub.add_parser(
        "serve",
        help="run the JSON-over-HTTP circuit-serving daemon "
        "(or, with --send, talk to one)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8077, help="bind port (0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--bits",
        type=int,
        default=8,
        help="data-parallel width of each physical cell",
    )
    serve_parser.add_argument(
        "--max-block",
        type=int,
        default=64,
        help="executor high-water mark: flush a queue at this many words",
    )
    serve_parser.add_argument(
        "--max-latency",
        type=float,
        default=0.005,
        help="seconds a queued word may wait for coalescing partners; "
        "a request with no same-key submit in that window runs at once",
    )
    serve_parser.add_argument(
        "--cache-size",
        type=int,
        default=16,
        help="compiled-circuit cache capacity (distinct netlists)",
    )
    serve_parser.add_argument(
        "--warm",
        nargs="*",
        metavar="PATH",
        help="netlist JSON files (swgate circuit --save-netlist) to "
        "compile before serving",
    )
    serve_parser.add_argument(
        "--send",
        nargs=2,
        metavar=("A", "B"),
        help="client mode: send one ripple-carry addition of A and B "
        "to a running daemon instead of starting one",
    )
    serve_parser.add_argument(
        "--url",
        default="http://127.0.0.1:8077",
        help="daemon URL for --send",
    )
    serve_parser.add_argument(
        "--width", type=int, default=4, help="adder width for --send"
    )
    serve_parser.add_argument(
        "--mode",
        default="phasor",
        choices=["phasor", "trace"],
        help="execution semantics for --send",
    )
    serve_parser.add_argument(
        "--access-log",
        metavar="PATH",
        help="mirror structured events (access, slow requests, errors, "
        "blocks) as JSON lines to this file",
    )
    serve_parser.add_argument(
        "--log-capacity",
        type=int,
        default=512,
        help="in-memory event ring capacity behind GET /logs "
        "(0 disables event logging)",
    )
    serve_parser.add_argument(
        "--slow-request-ms",
        type=float,
        default=500.0,
        help="capture a slow_request event (with the full trace) for "
        "any /v1/run above this latency",
    )
    serve_parser.add_argument(
        "--no-request-trace",
        action="store_true",
        help="skip per-request timing traces in /v1/run responses",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    top_parser = sub.add_parser(
        "top",
        help="live throughput monitor for a running serving daemon",
    )
    top_parser.add_argument(
        "--url",
        default="http://127.0.0.1:8077",
        help="daemon URL to poll",
    )
    top_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes",
    )
    top_parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after this many refreshes (default: until Ctrl-C)",
    )
    top_parser.add_argument(
        "--no-clear",
        action="store_true",
        help="append refreshes with a separator instead of clearing "
        "the screen (for logs / dumb terminals)",
    )
    top_parser.set_defaults(func=_cmd_top)

    synth_parser = sub.add_parser(
        "synth",
        help="synthesize a Boolean spec onto the physical cell library",
    )
    synth_parser.add_argument(
        "circuit",
        nargs="?",
        default=None,
        help="suite circuit name (see --list), or use --expr",
    )
    synth_parser.add_argument(
        "--expr",
        default=None,
        help="Boolean expression (&, |, ^, ~, maj(a,b,c)) to synthesize",
    )
    synth_parser.add_argument(
        "--output",
        default="f",
        help="output name for --expr specifications",
    )
    synth_parser.add_argument(
        "--bits",
        type=int,
        default=4,
        help="data-parallel width of each physical cell",
    )
    synth_parser.add_argument(
        "--mode",
        default="phasor",
        choices=["phasor", "trace"],
        help="physical execution semantics for the confirmation run",
    )
    synth_parser.add_argument(
        "--no-run",
        action="store_true",
        help="skip the physical engine confirmation run",
    )
    synth_parser.add_argument(
        "--list",
        action="store_true",
        help="list the benchmark-circuit suite",
    )
    synth_parser.add_argument(
        "--profile",
        action="store_true",
        help="print a span-tree profile (per-pass timings) and metrics "
        "table afterwards",
    )
    synth_parser.set_defaults(func=_cmd_synth)

    design_parser = sub.add_parser(
        "design", help="design and verify a custom data-parallel gate"
    )
    design_parser.add_argument(
        "--bits", type=int, default=8, help="data width (channel count)"
    )
    design_parser.add_argument(
        "--inputs", type=int, default=3, help="fan-in m"
    )
    design_parser.add_argument(
        "--width", type=float, default=50.0, help="waveguide width [nm]"
    )
    design_parser.add_argument(
        "--kind",
        default="majority",
        choices=["majority", "xor", "xnor", "and", "or"],
        help="gate function",
    )
    design_parser.add_argument(
        "--verify",
        default="corners",
        choices=["corners", "exhaustive", "none"],
        help="functional verification depth",
    )
    design_parser.set_defaults(func=_cmd_design)

    mif_parser = sub.add_parser("export-mif", help="export an OOMMF MIF file")
    mif_parser.add_argument("output", help="output .mif path")
    mif_parser.add_argument(
        "--words",
        nargs=3,
        default=["0xFF", "0x0F", "0x55"],
        help="three 8-bit input values",
    )
    mif_parser.set_defaults(func=_cmd_export_mif)

    save_parser = sub.add_parser(
        "save-design", help="save the byte gate as a JSON design document"
    )
    save_parser.add_argument("output", help="output .json path")
    save_parser.set_defaults(func=_cmd_save_design)

    check_parser = sub.add_parser(
        "check-design", help="load and re-verify a JSON design document"
    )
    check_parser.add_argument("design", help="design .json path")
    check_parser.set_defaults(func=_cmd_check_design)
    return parser


def main(argv=None):
    """Console entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
