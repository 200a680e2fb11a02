"""Per-step reference recurrences of the Langevin integrator.

These are plain-Python loops driven by the physical inputs.  They step
the state one sample at a time, exactly as the equations read, and serve
the tests as an independent oracle: the package's one-normal filter must
give their process in distribution, and their response to the injected
waveform once the start from rest has decayed.
"""

from __future__ import annotations


def euler_maruyama_loop(bc, bs, mcc, mcs, msc, mss, dt,
                        a_c, a_s, v_c, v_s, u_s, xi_drive,
                        p_bs, q_as, q_us, c_a, c_v,
                        out_d):
    # Noise arrays hold bin-averaged white-noise samples (variance
    # PSD/dt).  The detected sample combines the bin average of the
    # intracavity state, taken as the midpoint of the step, with the
    # same a_s sample that drives the cavity over the bin.
    n = a_s.shape[0]
    for i in range(n):
        f_c = c_a * a_c[i] + c_v * v_c[i]
        f_s = c_a * a_s[i] + c_v * v_s[i] + xi_drive[i]
        bc_next = bc + dt * (f_c - mcc * bc - mcs * bs)
        bs_next = bs + dt * (f_s - msc * bc - mss * bs)
        out_d[i] = p_bs * 0.5 * (bs + bs_next) + q_as * a_s[i] + q_us * u_s[i]
        bc = bc_next
        bs = bs_next
    return bc, bs


def exact_relax_loop(bs, decay, a_bar, w_drive, u_s,
                     p_bs, q_as, q_us, out_d):
    # Exact one-step relaxation of the decoupled measured quadrature:
    # the per-step drive increments in w_drive already carry the exact
    # within-step filtering and their correlation with a_bar.  The
    # detector uses the same midpoint state average as the Euler path.
    n = a_bar.shape[0]
    for i in range(n):
        bs_next = decay * bs + w_drive[i]
        out_d[i] = p_bs * 0.5 * (bs + bs_next) + q_as * a_bar[i] + q_us * u_s[i]
        bs = bs_next
    return bs
