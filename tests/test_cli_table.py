"""The parser that the command table builds, pinned field by field.

PARSER was recorded from `build_parser()` before the command table replaced
its hand-written declarations: for each subcommand its help and, for each
option, (option strings, dest, default, type, choices, help, required).  The
fields are compared, not the `--help` text, which differs across Python
versions.  Options are compared by dest: trajectory's table lists them in the
order their bounds are checked (x0, --max-steps, then the (a, b) map), so its
`--help` lists --max-steps before --a and --b.
"""

import argparse

from collatzlab import cli as cli_mod

PARSER = {
    'trajectory': ('print one orbit with step directions', [
        ([], 'x0', None, 'int', None,
         'start value', True),
        (['--map'], 'map', 'general', None, ['general', 'odd', 'anb'],
         'shortcut map, odd-to-odd map, or generalized (a*x+b)/2^k', False),
        (['--a'], 'a', 5, 'int', None,
         'multiplier for --map anb', False),
        (['--b'], 'b', 1, 'int', None,
         'offset for --map anb', False),
        (['--max-steps'], 'max_steps', 100000, 'int', None,
         None, False),
        (['--format'], 'format', 'text', None, ['text', 'json', 'csv'],
         None, False),
        (['--output'], 'output', None, None, None,
         'file path (default: stdout)', False),
    ]),
    'verify': ('run one exhaustive identity check', [
        ([], 'check', None, None, ['lemma7', 'eq2', 'bohm', 'geom', 'anb-eq', 'halfsplit'],
         'lemma7: residue-class shift law; eq2: odd-trajectory closed form; bohm: start '
         'reconstruction from division exponents; geom: geometric tail sum; anb-eq: '
         'generalized closed form; halfsplit: step tallies over 1..2^M', True),
        (['--max-k'], 'max_k', 12, 'int', None,
         'lemma7: largest modulus exponent', False),
        (['--samples'], 'samples', 100, 'int', None,
         'lemma7/anb-eq: seeded draws', False),
        (['--seed'], 'seed', 0, 'int', None,
         None, False),
        (['--max-x0'], 'max_x0', 9999, 'int', None,
         'eq2/bohm: odd-start bound', False),
        (['--max-n'], 'max_n', 50, 'int', None,
         'geom/anb-eq: step bound', False),
        (['--max-m'], 'max_m', 50, 'int', None,
         'geom: extra-step bound', False),
        (['--a'], 'a', 5, 'int', None,
         None, False),
        (['--b'], 'b', 1, 'int', None,
         None, False),
        (['--M'], 'M', 10, 'int', None,
         'halfsplit: range is 1..2^M', False),
        (['--steps'], 'steps', None, 'int', None,
         'halfsplit: steps to tally', False),
        (['--lo'], 'lo', None, 'int', None,
         'halfsplit: subrange low end', False),
        (['--hi'], 'hi', None, 'int', None,
         'halfsplit: subrange high end', False),
        (['--method'], 'method', 'direct', None, ['direct', 'classes'],
         None, False),
        (['--format'], 'format', 'text', None, ['text', 'json', 'csv'],
         None, False),
        (['--output'], 'output', None, None, None,
         'file path (default: stdout)', False),
    ]),
    'montecarlo': ('seeded 0/1 drift-ratio experiment', [
        (['--length'], 'length', 100, 'int', None,
         'bits per sample', False),
        (['--samples'], 'samples', 14, 'int', None,
         None, False),
        (['--seed'], 'seed', 0, 'int', None,
         None, False),
        (['--level'], 'level', 'all', None, ['95', '98', '99', 'all'],
         'confidence level(s) for the interval block', False),
        (['--fixture'], 'fixture', None, None, ['paper14'],
         'use the embedded published 14-row table instead of generating', False),
        (['--format'], 'format', 'text', None, ['text', 'json', 'csv'],
         None, False),
        (['--output'], 'output', None, None, None,
         'file path (default: stdout)', False),
    ]),
    'sweep': ('walk every start in 1..limit to 1', [
        (['--limit'], 'limit', None, 'int', None,
         None, True),
        (['--max-steps'], 'max_steps', 100000, 'int', None,
         None, False),
        (['--threads'], 'threads', 1, 'int', None,
         'walkers, 1..256: the calling thread and THREADS - 1 worker threads, no more than '
         'the CPUs', False),
        (['--format'], 'format', 'text', None, ['text', 'json', 'csv'],
         None, False),
        (['--output'], 'output', None, None, None,
         'file path (default: stdout)', False),
    ]),
    'anb-cycles': ('catalog cycles of one (a, b) map', [
        (['--a'], 'a', 5, 'int', None,
         None, False),
        (['--b'], 'b', 1, 'int', None,
         None, False),
        (['--limit'], 'limit', 100, 'int', None,
         'odd starts searched', False),
        (['--max-steps'], 'max_steps', 10000, 'int', None,
         None, False),
        (['--format'], 'format', 'text', None, ['text', 'json', 'csv'],
         None, False),
        (['--output'], 'output', None, None, None,
         'file path (default: stdout)', False),
    ]),
}


def fields(parser):
    """{subcommand: (help, {dest: option fields})} of a parser."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {
        name: (helps[name], {
            a.dest: (a.option_strings, a.dest, a.default, a.type.__name__ if a.type else None,
                     list(a.choices) if a.choices else None, a.help, a.required)
            for a in sp._actions if not isinstance(a, argparse._HelpAction)
        })
        for name, sp in sub.choices.items()
    }


def test_parser_fields_as_recorded():
    pinned = {name: (help, {f[1]: f for f in options}) for name, (help, options) in PARSER.items()}
    assert fields(cli_mod.build_parser()) == pinned


def test_option_order_as_recorded_but_trajectory():
    parser = fields(cli_mod.build_parser())
    for name, (_, options) in PARSER.items():
        order = [f[1] for f in options]
        if name == "trajectory":
            order = ["x0", "map", "max_steps", "a", "b", "format", "output"]
        assert list(parser[name][1]) == order


def test_each_check_lists_its_own_options():
    # verify's options are the checks' options, each once, in first-listed order
    verify = cli_mod.COMMANDS["verify"].options
    assert verify[0].flag == "check" and verify[0].choices == tuple(cli_mod.CHECKS)
    listed = [opt for check in cli_mod.CHECKS.values() for opt in check.options]
    assert list(verify[1:]) == list(dict.fromkeys(listed))
