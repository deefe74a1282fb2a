#!/usr/bin/env python3
"""Tabulate entropy budgets across accuracies and growth orders.

For each growth order k and accuracy eps, evaluates the full chain:
exponent scale, net radius, mesh width, scheduled node budget, and the log
covering count, next to the closed-form final bound.  Useful for judging
how far the closed form sits above the assembled chain.
"""

import argparse
import math

from normmesh import bounds
from normmesh.errors import exit_code_of, exit_process


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--chat", type=float, default=math.exp(2))
    parser.add_argument("--nbar", type=int, default=1)
    parser.add_argument("--orders", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--eps", type=float, nargs="+",
                        default=[0.5, 0.25, 0.1, 0.05, 0.01])
    args = parser.parse_args()

    print(f"{'k':>3} {'eps':>11} {'s_eps':>12} {'R_eps':>10} {'1/xi':>12} "
          f"{'nodes':>10} {'log_cover':>14} {'closed_form':>14}")
    for k in args.orders:
        for eps in args.eps:
            rep = bounds.entropy_chain(args.d, k, args.chat, args.nbar, eps)
            # 6 significant digits, as many as the benchmark's accuracies carry
            print(f"{k:>3} {eps:>11.6g} "
                  f"{bounds.format_real(rep.value('s_eps'), 8):>12} "
                  f"{bounds.format_real(rep.value('R_eps'), 7):>10} "
                  f"{bounds.format_real(rep.value('inv_xi_3_8'), 8):>12} "
                  f"{rep.value('N_ds_cor1'):>10} "
                  f"{bounds.format_real(rep.value('log_net_card'), 8):>14} "
                  f"{bounds.format_real(rep.value('entropy_chain_final'), 8):>14}")
    return 0


if __name__ == "__main__":
    exit_process(exit_code_of(main))
