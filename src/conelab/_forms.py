"""Generated by `python -m conelab._gen_forms` with sympy 1.14.0; do not edit.

FORMS maps each expression string to its slots value, du, dv, duu, duv, dvv.
"""

from numpy import cos, less, log, nan, select, sin


def unit_value(u, v):
    return 1


def unit_du(u, v):
    return 0


def unit_dv(u, v):
    return 0


def unit_duu(u, v):
    return 0


def unit_duv(u, v):
    return 0


def unit_dvv(u, v):
    return 0


def oscillatory_value(u, v):
    return sin(u)*cos((1/3)*v)


def oscillatory_du(u, v):
    return cos(u)*cos((1/3)*v)


def oscillatory_dv(u, v):
    return -1/3*sin(u)*sin((1/3)*v)


def oscillatory_duu(u, v):
    return -sin(u)*cos((1/3)*v)


def oscillatory_duv(u, v):
    return -1/3*sin((1/3)*v)*cos(u)


def oscillatory_dvv(u, v):
    return -1/9*sin(u)*cos((1/3)*v)


def separable_power_value(u, v):
    return (-v/u)**(3/10)*(-u*v)**(4/5)


def separable_power_du(u, v):
    return (1/2)*(-v/u)**(3/10)*(-u*v)**(4/5)/u


def separable_power_dv(u, v):
    return (11/10)*(-v/u)**(3/10)*(-u*v)**(4/5)/v


def separable_power_duu(u, v):
    return -1/4*(-v/u)**(3/10)*(-u*v)**(4/5)/u**2


def separable_power_duv(u, v):
    return (11/20)*(-v/u)**(3/10)*(-u*v)**(4/5)/(u*v)


def separable_power_dvv(u, v):
    return (11/100)*(-v/u)**(3/10)*(-u*v)**(4/5)/v**2


def spherical_wave_value(u, v):
    return (select([less(u**2, 0.25),True], [(1 - 4.0*u**2)**8,0], default=nan) - select([less(v**2, 0.25),True], [(1 - 4.0*v**2)**8,0], default=nan))/(-u + v)


def spherical_wave_du(u, v):
    return select([less(u**2, 0.25),True], [-64.0*u*(1 - 4.0*u**2)**7,0], default=nan)/(-u + v) + (select([less(u**2, 0.25),True], [(1 - 4.0*u**2)**8,0], default=nan) - select([less(v**2, 0.25),True], [(1 - 4.0*v**2)**8,0], default=nan))/(-u + v)**2


def spherical_wave_dv(u, v):
    return -select([less(v**2, 0.25),True], [-64.0*v*(1 - 4.0*v**2)**7,0], default=nan)/(-u + v) - (select([less(u**2, 0.25),True], [(1 - 4.0*u**2)**8,0], default=nan) - select([less(v**2, 0.25),True], [(1 - 4.0*v**2)**8,0], default=nan))/(-u + v)**2


def spherical_wave_duu(u, v):
    return (-select([less(u**2, 0.25),True], [(4.0*u**2 - 1)**6*(3840.0*u**2 - 64.0),0], default=nan) + 2*select([less(u**2, 0.25),True], [64.0*u*(4.0*u**2 - 1)**7,0], default=nan)/(u - v) - 2*(select([less(u**2, 0.25),True], [(4.0*u**2 - 1)**8,0], default=nan) - select([less(v**2, 0.25),True], [(4.0*v**2 - 1)**8,0], default=nan))/(u - v)**2)/(u - v)


def spherical_wave_duv(u, v):
    return -select([less(u**2, 0.25),True], [-64.0*u*(1 - 4.0*u**2)**7,0], default=nan)/(-u + v)**2 - select([less(v**2, 0.25),True], [-64.0*v*(1 - 4.0*v**2)**7,0], default=nan)/(-u + v)**2 - 2*(select([less(u**2, 0.25),True], [(1 - 4.0*u**2)**8,0], default=nan) - select([less(v**2, 0.25),True], [(1 - 4.0*v**2)**8,0], default=nan))/(-u + v)**3


def spherical_wave_dvv(u, v):
    return (select([less(v**2, 0.25),True], [(4.0*v**2 - 1)**6*(3840.0*v**2 - 64.0),0], default=nan) + 2*select([less(v**2, 0.25),True], [64.0*v*(4.0*v**2 - 1)**7,0], default=nan)/(u - v) - 2*(select([less(u**2, 0.25),True], [(4.0*u**2 - 1)**8,0], default=nan) - select([less(v**2, 0.25),True], [(4.0*v**2 - 1)**8,0], default=nan))/(u - v)**2)/(u - v)


def multipole_2_value(u, v):
    return (-u + v)**(-2.0)


def multipole_2_du(u, v):
    return 2/(-u + v)**3


def multipole_2_dv(u, v):
    return -2/(-u + v)**3


def multipole_2_duu(u, v):
    return 6/(u - v)**4


def multipole_2_duv(u, v):
    return -6/(-u + v)**4


def multipole_2_dvv(u, v):
    return 6/(u - v)**4


def pretender_1_value(u, v):
    return ((1 - u)*(v + 1))**(-3/2)


def pretender_1_du(u, v):
    return ((3/2)*v + 3/2)/(((1 - u)*(v + 1))**(3/2)*(1 - u)*(v + 1))


def pretender_1_dv(u, v):
    return ((3/2)*u - 3/2)/(((1 - u)*(v + 1))**(3/2)*(1 - u)*(v + 1))


def pretender_1_duu(u, v):
    return (15/4)/((-(u - 1)*(v + 1))**(3/2)*(u - 1)**2)


def pretender_1_duv(u, v):
    return (3/2)/(((1 - u)*(v + 1))**(3/2)*(1 - u)*(v + 1)) - ((3/2)*v + 3/2)/(((1 - u)*(v + 1))**(3/2)*(1 - u)*(v + 1)**2) + ((3/2)*u - 3/2)*((3/2)*v + 3/2)/(((1 - u)*(v + 1))**(3/2)*(1 - u)**2*(v + 1)**2)


def pretender_1_dvv(u, v):
    return (15/4)/((-(u - 1)*(v + 1))**(3/2)*(v + 1)**2)


def pretender_2_value(u, v):
    return (1/3)*(sin(log(-u*v)) + 2)/((1 - u)*(v + 1))**(3/2)


def pretender_2_du(u, v):
    return (1/3)*((3/2)*v + 3/2)*(sin(log(-u*v)) + 2)/(((1 - u)*(v + 1))**(3/2)*(1 - u)*(v + 1)) + (1/3)*cos(log(-u*v))/(u*((1 - u)*(v + 1))**(3/2))


def pretender_2_dv(u, v):
    return (1/3)*((3/2)*u - 3/2)*(sin(log(-u*v)) + 2)/(((1 - u)*(v + 1))**(3/2)*(1 - u)*(v + 1)) + (1/3)*cos(log(-u*v))/(v*((1 - u)*(v + 1))**(3/2))


def pretender_2_duu(u, v):
    return ((5/4)*(sin(log(-u*v)) + 2)/(u - 1)**2 - cos(log(-u*v))/(u*(u - 1)) - 1/3*(sin(log(-u*v)) + cos(log(-u*v)))/u**2)/(-(u - 1)*(v + 1))**(3/2)


def pretender_2_duv(u, v):
    return (1/2)*(sin(log(-u*v)) + 2)/(((1 - u)*(v + 1))**(3/2)*(1 - u)*(v + 1)) - 1/3*((3/2)*v + 3/2)*(sin(log(-u*v)) + 2)/(((1 - u)*(v + 1))**(3/2)*(1 - u)*(v + 1)**2) + (1/3)*((3/2)*u - 3/2)*((3/2)*v + 3/2)*(sin(log(-u*v)) + 2)/(((1 - u)*(v + 1))**(3/2)*(1 - u)**2*(v + 1)**2) + (1/3)*((3/2)*v + 3/2)*cos(log(-u*v))/(v*((1 - u)*(v + 1))**(3/2)*(1 - u)*(v + 1)) + (1/3)*((3/2)*u - 3/2)*cos(log(-u*v))/(u*((1 - u)*(v + 1))**(3/2)*(1 - u)*(v + 1)) - 1/3*sin(log(-u*v))/(u*v*((1 - u)*(v + 1))**(3/2))


def pretender_2_dvv(u, v):
    return ((5/4)*(sin(log(-u*v)) + 2)/(v + 1)**2 - cos(log(-u*v))/(v*(v + 1)) - 1/3*(sin(log(-u*v)) + cos(log(-u*v)))/v**2)/(-(u - 1)*(v + 1))**(3/2)


def pretender_3_value(u, v):
    return ((1 - u)*(v + 1))**(-8/5)


def pretender_3_du(u, v):
    return ((8/5)*v + 8/5)/(((1 - u)*(v + 1))**(8/5)*(1 - u)*(v + 1))


def pretender_3_dv(u, v):
    return ((8/5)*u - 8/5)/(((1 - u)*(v + 1))**(8/5)*(1 - u)*(v + 1))


def pretender_3_duu(u, v):
    return (104/25)/((-(u - 1)*(v + 1))**(8/5)*(u - 1)**2)


def pretender_3_duv(u, v):
    return (8/5)/(((1 - u)*(v + 1))**(8/5)*(1 - u)*(v + 1)) - ((8/5)*v + 8/5)/(((1 - u)*(v + 1))**(8/5)*(1 - u)*(v + 1)**2) + ((8/5)*u - 8/5)*((8/5)*v + 8/5)/(((1 - u)*(v + 1))**(8/5)*(1 - u)**2*(v + 1)**2)


def pretender_3_dvv(u, v):
    return (104/25)/((-(u - 1)*(v + 1))**(8/5)*(v + 1)**2)


FORMS = {
    '1 + 0*u':
        (unit_value, unit_du, unit_dv, unit_duu, unit_duv, unit_dvv),
    'sin(u)*cos(v/3)':
        (oscillatory_value, oscillatory_du, oscillatory_dv, oscillatory_duu, oscillatory_duv, oscillatory_dvv),
    '(-u*v)**(4/5) * (-v/u)**(3/10)':
        (separable_power_value, separable_power_du, separable_power_dv, separable_power_duu, separable_power_duv, separable_power_dvv),
    '(Piecewise(((1 - ((2*u)/1.0)**2)**8, (2*u)**2 < 1.0**2), (0, True)) - Piecewise(((1 - ((2*v)/1.0)**2)**8, (2*v)**2 < 1.0**2), (0, True))) / (v - u)':
        (spherical_wave_value, spherical_wave_du, spherical_wave_dv, spherical_wave_duu, spherical_wave_duv, spherical_wave_dvv),
    '(v - u)**(-2)':
        (multipole_2_value, multipole_2_du, multipole_2_dv, multipole_2_duu, multipole_2_duv, multipole_2_dvv),
    '((1-u)*(1+v))**(-3/2)':
        (pretender_1_value, pretender_1_du, pretender_1_dv, pretender_1_duu, pretender_1_duv, pretender_1_dvv),
    '((1-u)*(1+v))**(-3/2) * (2 + sin(log(-u*v)))/3':
        (pretender_2_value, pretender_2_du, pretender_2_dv, pretender_2_duu, pretender_2_duv, pretender_2_dvv),
    '((1-u)*(1+v))**(-8/5)':
        (pretender_3_value, pretender_3_du, pretender_3_dv, pretender_3_duu, pretender_3_duv, pretender_3_dvv),
}
